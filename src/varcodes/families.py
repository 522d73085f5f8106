"""The family table: the one place that defines each variety family.

A record gives a family's parameter schema (names, kinds, construction
ranges), whether the degree h is free, the point/basis builder, the
closed-form predictor and its candidate minimum-distance bounds.
`check_descriptor` is the single validation boundary: every entry point
calls it, so builders, predictors and bound selectors trust their
parameters.  Predictors refuse requests outside a theorem's range with
`OutOfTheoremRange`, a separate question from whether the code can be
constructed at all.

Each prediction is tagged with the status of its d value: exact, a lower
bound, or a two-value dichotomy (degree-6 blow-ups, where special point
configurations with an Eckardt point lose 1).
"""

from __future__ import annotations

import inspect
import math
from contextlib import suppress
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Any, Callable

from . import bounds
from .errors import InputError, InternalError, OutOfTheoremRange
from .gf import GF, prime_power
from .linalg import maximal_minors
from .projgeom import Form, enumerate_projective_points, evaluate_forms
from .varieties import (
    PointSet,
    VarietyDescriptor,
    classify_quadric,
    complete_intersection_points,
    delpezzo_points,
    flag_points,
    grassmann_points,
    hermitian_form,
    hypersurface_points,
    p1p1_basis,
    point_labels,
    product_p1p1_points,
    quadric_normal_form,
    schubert_points,
    toric_basis,
    toric_points,
)

EXACT = "exact"
LOWER_BOUND = "lower-bound"
DICHOTOMY = "dichotomy"
UNKNOWN = "unknown"

Params = dict[str, Any]


@dataclass
class Prediction:
    n: int
    k: int
    d: int | None
    d_status: str
    anchor: str
    d_options: tuple[int, int] | None = None
    weights: tuple[int, ...] | None = None
    k_status: str = "exact"
    extras: dict[str, Any] = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {key: getattr(self, key) for key in ("n", "k", "k_status", "d", "d_status", "anchor")}
        if self.d_options is not None:
            out["d_options"] = list(self.d_options)
        if self.weights is not None:
            out["weights"] = sorted(self.weights)
        if self.extras:
            out["extras"] = self.extras
        return out


@dataclass(frozen=True)
class Family:
    """One variety family.

    params maps each parameter name to its kind (see `require_fields`);
    names in optional may be absent.  check(params, q) raises on ranges
    that involve several parameters or q.  A family with a basis or a
    blow-up fixes its own basis, so its codes take h = 1 only.
    bounds(params, h, q, n) lists candidate calls; each calculator checks
    its own hypotheses.
    """

    params: dict[str, str | tuple]
    check: Callable[[Params, int], None] | None = None
    points: Callable[[Params, GF], PointSet] | None = None
    basis: Callable[[Params, GF], tuple[list[Form], list[str]]] | None = None
    # Number of general points of P^2 blown up; the blow-up's columns are
    # already the values of its anticanonical basis.
    blow_up: Callable[[Params], int] | None = None
    predict: Callable[[Params, int, int], Prediction] | None = None
    bounds: Callable[[Params, int, int, int], list[Callable[[], bounds.BoundReport]]] | None = None
    optional: frozenset[str] = frozenset()

    @property
    def h_free(self) -> bool:
        return self.basis is None and self.blow_up is None


# -- value kinds -------------------------------------------------------------------

_TYPES = {"int": int, "bool": bool, "str": str, "dict": dict}


def ints(lo: int, hi: int | None = None) -> tuple[str, int, int | None]:
    """The kind of an int parameter with construction range lo..hi."""
    return ("int", lo, hi)


def is_kind(value, kind: str) -> bool:
    """Whether a JSON value has a kind: int (not bool), list[...], form, ..."""
    if kind in _TYPES:
        return type(value) is _TYPES[kind]
    if kind.startswith("list["):
        inner = kind[5:-1]
        if inner in _TYPES:  # the fast path for artifact generators and labels, in C
            return type(value) is list and set(map(type, value)) <= {_TYPES[inner]}
        return type(value) is list and all(is_kind(v, inner) for v in value)
    if kind == "int | None":
        return value is None or is_kind(value, "int")
    if kind == "form":
        return (
            type(value) is dict
            and set(value) == {"ambient", "degree", "terms"}
            and is_kind(value["ambient"], "int")
            and is_kind(value["degree"], "int")
            and type(value["terms"]) is list
            and all(
                type(t) is list and len(t) == 2 and is_kind(t[1], "int")
                and is_kind(t[0], "list[int]") and min(t[0], default=0) >= 0
                for t in value["terms"]
            )
        )
    raise InternalError(f"unknown kind {kind!r}")


def require_kind(what: str, value, kind: str) -> None:
    if not is_kind(value, kind):
        raise InputError(f"{what} must be {kind}, got {value!r}")


def require_fields(what: str, obj, kinds: dict, optional=frozenset()) -> None:
    """obj must be a JSON object with exactly these keys (bar optional ones).

    A kind is a name such as "int" or "list[int]", or ints(lo, hi).
    """
    require_kind(what, obj, "dict")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise InputError(f"{what} has unknown keys {unknown}")
    for key, spec in kinds.items():
        if key not in obj:
            if key not in optional:
                raise InputError(f"{what} is missing {key!r}")
            continue
        kind, lo, hi = spec if isinstance(spec, tuple) else (spec, None, None)
        require_kind(f"{what} {key!r}", obj[key], kind)
        if lo is not None and (obj[key] < lo or hi is not None and obj[key] > hi):
            limits = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise InputError(f"{what} {key!r} must be {limits}, got {obj[key]}")


def check_order(q) -> None:
    """q must be a prime power >= 2."""
    require_kind("q", q, "int")
    prime_power(q)


def check_arguments(fn: Callable, params: dict) -> None:
    """params must bind to fn's signature with the annotated kinds; q a prime power."""
    sig = inspect.signature(fn)
    try:
        bound = sig.bind(**params)
    except TypeError as exc:
        raise InputError(f"{fn.__name__}: {exc}") from None
    for name, value in bound.arguments.items():
        require_kind(f"{fn.__name__} parameter {name!r}", value, sig.parameters[name].annotation)
        if name == "q":
            check_order(value)


# -- ranges over several parameters ------------------------------------------------


def _check_quadric(p: Params, q: int) -> None:
    if "form" in p and p["form"]["degree"] != 2:
        raise InputError("quadric descriptor form must have degree 2")
    if "form" in p and not any({tuple(e): c for e, c in p["form"]["terms"]}.values()):
        raise InputError("quadric descriptor form has no nonzero term")
    if ("m" in p) != ("w" in p) or not ("m" in p or "form" in p):
        raise InputError("a quadric descriptor needs both m and w, or a form")
    if "form" in p and "m" in p and p["m"] != p["form"]["ambient"]:
        raise InputError(f"m = {p['m']} is not the form's ambient {p['form']['ambient']}")
    if "w" in p and (p["w"] == 1) != (p["m"] % 2 == 0):
        raise InputError("parabolic quadrics need even m, the others odd m")


def _check_hermitian(p: Params, q: int) -> None:
    if q != p["r"] ** 2:
        raise InputError(f"GF({q}) is not GF({p['r']}^2)")


def _check_subspaces(p: Params, q: int) -> None:
    if p["l"] >= p["m"]:
        raise InputError(f"need 1 <= l < m, got l={p['l']}, m={p['m']}")


def _check_schubert(p: Params, q: int) -> None:
    l, m, alpha = p["l"], p["m"], p["alpha"]
    if len(alpha) != l or not all(1 <= a <= b <= m for a, b in zip(alpha, alpha[1:] + [m])):
        raise InputError(f"need 1 <= a1 <= ... <= a{l} <= {m}, got {alpha}")
    _check_subspaces(p, q)


def _check_del_pezzo(p: Params, q: int) -> None:
    if q <= 4:
        raise OutOfTheoremRange(f"need q > 4 for general position, got q = {q}", hypothesis="q > 4")


def _check_toric(p: Params, q: int) -> None:
    if not p["lattice_points"]:
        raise InputError("no lattice points supplied")
    if any(len(u) != p["s"] for u in p["lattice_points"]):
        raise InputError(f"every lattice point needs s = {p['s']} entries")


def _check_complete_intersection(p: Params, q: int) -> None:
    forms = p["forms"]
    if not forms or any(f["ambient"] != len(forms) for f in forms):
        raise InputError("a complete intersection in P^m needs exactly m forms")


# -- point sets, predictions and bounds ---------------------------------------------


def _reduced_intersection(p: Params, q: int, n: int) -> bool:
    """True iff the m forms meet in n = their degree product of points, where
    each has a Jacobian of rank m (is reduced), as Cayley-Bacharach needs: a
    curve given twice has the count, but not the rank."""
    if n != math.prod(f["degree"] for f in p["forms"]):
        return False
    fld = GF.from_order(q)
    forms = [Form.from_dict(fld, f) for f in p["forms"]]
    pts, m = complete_intersection_points(forms).points, len(forms)
    jacobian = evaluate_forms([f.partial(i) for f in forms for i in range(m + 1)], pts)
    minors = maximal_minors(fld, jacobian.T.reshape(len(pts), m, m + 1))
    return len(pts) == n and bool(minors.any(axis=1).all())


def _projective_points(p: Params, fld: GF) -> PointSet:
    pts = enumerate_projective_points(p["m"], fld, p.get("affine", False))
    return PointSet(fld, p["m"], pts, point_labels(pts, fld))


def _quadric_points(p: Params, fld: GF) -> PointSet:
    if "form" in p:
        return hypersurface_points(Form.from_dict(fld, p["form"]))
    return hypersurface_points(quadric_normal_form(p["m"], p["w"], fld))


def _require(cond: bool, hypothesis: str):
    if not cond:
        raise OutOfTheoremRange(
            f"outside the stated range of validity: needs {hypothesis}",
            hypothesis=hypothesis,
        )


def _predict_projective(p: Params, h: int, q: int) -> Prediction:
    _require(not p.get("affine", False), "the full projective point set")
    _require(1 <= h <= q, "1 <= h <= q")
    m = p["m"]
    return Prediction(
        bounds.sigma(m, q), bounds.binomial(m + h, h), (q + 1 - h) * q ** (m - 1),
        EXACT, "projective Reed-Muller parameters (Lachaud, Serre)",
    )


def _quadric_character(p: Params, q: int) -> tuple[int, int]:
    """m and w of a quadric descriptor, which a form must agree with."""
    m, w = p["m"], p["w"]
    if "form" in p and classify_quadric(Form.from_dict(GF.from_order(q), p["form"])) != (m + 1, w):
        raise InputError(f"the form is not a nondegenerate quadric with m = {m}, w = {w}")
    return m, w


def _predict_quadric(p: Params, h: int, q: int) -> Prediction:
    _require("w" in p, "a character w (classify explicit forms first)")
    m, w = _quadric_character(p, q)
    n = bounds.quadric_count(m, w, q)
    if h == 1:
        if w == 2:
            d = q ** (m - 1)
        elif w == 1:
            d = q ** (m - 1) - q ** ((m - 2) // 2)
        else:
            d = q ** (m - 1) - q ** ((m - 1) // 2)
        return Prediction(n, m + 1, d, EXACT, "smooth quadric code parameters (Wolfmann)")
    _require(h == 2, "h in {1, 2} for quadric codes")
    return Prediction(
        n, bounds.binomial(m + 2, 2) - 1, None, UNKNOWN,
        "quadric degree-2 code dimension bound", k_status="upper-bound",
    )


def _predict_hermitian(p: Params, h: int, q: int) -> Prediction:
    m, r = p["m"], p["r"]
    n = bounds.hermitian_count(m, r)
    if h == 1:
        d = r ** (2 * m - 1) - (r ** (m - 1) if m % 2 == 0 else 0)
        weights = (r ** (2 * m - 1) + (-1) ** (m - 1) * r ** (m - 1), r ** (2 * m - 1))
        return Prediction(
            n, m + 1, d, EXACT, "Hermitian hypersurface code parameters (Chakravarti)",
            weights=weights,
        )
    _require(m == 3, "m = 3 for degree-h Hermitian codes")
    _require(h < r + 1, "h < r + 1")
    return Prediction(
        n, bounds.binomial(4 + h, h), bounds.hermitian_ch_bound(n, h, r).value,
        LOWER_BOUND, "Hermitian surface degree-h code parameters",
    )


def _predict_grassmann(p: Params, h: int, q: int) -> Prediction:
    _require(h == 1, "h = 1 for Grassmannian codes")
    l, m = p["l"], p["m"]
    return Prediction(
        bounds.gaussian_binomial(m, l, q), bounds.binomial(m, l), q ** (l * (m - l)),
        EXACT, "Grassmannian code parameters (Nogin)",
        extras={"min_weight_words": bounds.grassmann_min_weight_words(l, m, q)},
    )


def _predict_flag(p: Params, h: int, q: int) -> Prediction:
    _require(h == 1, "h = 1 for flag variety codes")
    m = p["m"]
    return Prediction(
        bounds.flag_count(m, q), m * m - 1, q ** (2 * m - 3) - q ** (m - 2),
        EXACT, "point-hyperplane flag code parameters (Rodier)",
    )


def _predict_del_pezzo(p: Params, h: int, q: int) -> Prediction:
    l = p["l"]
    n, k = q * q + q + 1 + l * q, 10 - l
    table = {0: q * q - 2 * q, 1: q * q - 2 * q, 2: q * q - 2 * q,
             3: q * q - 2 * q + 1, 4: q * q, 5: q * q + 2 * q}
    anchor = "Del Pezzo surface code parameters (Boguslavsky)"
    if l <= 5:
        return Prediction(n, k, table[l], EXACT, anchor)
    return Prediction(
        n, k, None, DICHOTOMY, anchor, d_options=(q * q + 4 * q, q * q + 4 * q + 1),
        extras={"eckardt_value": q * q + 4 * q},
    )


def _predict_p1xp1(p: Params, h: int, q: int) -> Prediction:
    alpha, beta = p["alpha"], p["beta"]
    _require(alpha <= q and beta <= q, "0 <= alpha, beta <= q")
    return Prediction(
        (q + 1) ** 2, (alpha + 1) * (beta + 1), (q + 1 - alpha) * (q + 1 - beta),
        EXACT, "biprojective product code parameters (Hansen)",
    )


def _section_bounds(m: int, s: int, q: int, n: int) -> list:
    """Projection and hyperplane-section candidates for a degree-s hypersurface in P^m."""
    return [
        partial(bounds.elementary_bound, n, s, m - 1, q),
        partial(bounds.lachaud_section_bounds, q, m, s, n),
    ]


def _quadric_bounds(p: Params, h: int, q: int, n: int) -> list:
    if h != 1 or "m" not in p:
        return []
    return _section_bounds(_quadric_character(p, q)[0], 2, q, n)


def _hermitian_bounds(p: Params, h: int, q: int, n: int) -> list:
    m, r = p["m"], p["r"]
    out = _section_bounds(m, r + 1, q, n) if h == 1 else []
    if m == 3:
        out += [partial(fn, n, h, r) for fn in (bounds.sorensen_bound, bounds.hermitian_ch_bound)]
    return out


# -- the table --------------------------------------------------------------------

FAMILIES: dict[str, Family] = {
    "projective_space": Family(
        {"m": ints(1), "affine": "bool"}, optional=frozenset({"affine"}),
        points=_projective_points, predict=_predict_projective,
        bounds=lambda p, h, q, n: (
            [partial(bounds.elementary_bound, n, 1, p["m"], q)]
            if h == 1 and not p.get("affine", False) else []
        ),
    ),
    "quadric": Family(
        {"m": ints(1), "w": ints(0, 2), "form": "form"}, _check_quadric,
        optional=frozenset({"m", "w", "form"}),
        points=_quadric_points, predict=_predict_quadric, bounds=_quadric_bounds,
    ),
    "hermitian": Family(
        {"m": ints(1), "r": ints(2)}, _check_hermitian,
        points=lambda p, fld: hypersurface_points(hermitian_form(p["m"], p["r"], fld)),
        predict=_predict_hermitian, bounds=_hermitian_bounds,
    ),
    "grassmann": Family(
        {"l": ints(1), "m": ints(2)}, _check_subspaces,
        points=lambda p, fld: grassmann_points(p["l"], p["m"], fld),
        predict=_predict_grassmann,
        # G(2,4) is a quadric hypersurface in its ambient P^5.
        bounds=lambda p, h, q, n: (
            [partial(bounds.elementary_bound, n, 2, 4, q)]
            if h == 1 and (p["l"], p["m"]) == (2, 4) else []
        ),
    ),
    "schubert": Family(
        {"l": ints(1), "m": ints(2), "alpha": "list[int]"}, _check_schubert,
        points=lambda p, fld: schubert_points(p["l"], p["m"], p["alpha"], fld),
    ),
    "flag": Family(
        {"m": ints(2)},
        points=lambda p, fld: flag_points(p["m"], fld), predict=_predict_flag,
    ),
    "del_pezzo": Family(
        {"l": ints(0, 6)}, _check_del_pezzo,
        points=lambda p, fld: delpezzo_points(p["l"], fld)[0],
        blow_up=lambda p: p["l"], predict=_predict_del_pezzo,
    ),
    "toric": Family(
        {"s": ints(1), "lattice_points": "list[list[int]]"}, _check_toric,
        points=lambda p, fld: toric_points(p["s"], fld),
        basis=lambda p, fld: toric_basis(p["lattice_points"], fld),
    ),
    "complete_intersection": Family(
        {"forms": "list[form]"}, _check_complete_intersection,
        points=lambda p, fld: complete_intersection_points(
            [Form.from_dict(fld, f) for f in p["forms"]]
        ),
        bounds=lambda p, h, q, n: (
            [partial(bounds.cayley_bacharach_bound, [f["degree"] for f in p["forms"]], h)]
            if _reduced_intersection(p, q, n) else []
        ),
    ),
    "p1xp1": Family(
        {"alpha": ints(0), "beta": ints(0)},
        points=lambda p, fld: product_p1p1_points(fld),
        basis=lambda p, fld: p1p1_basis(p["alpha"], p["beta"], fld),
        predict=_predict_p1xp1,
        bounds=lambda p, h, q, n: [
            partial(bounds.covering_family_bound, n, q + 1, q + 1, p["beta"], p["alpha"])
        ],
    ),
}


def check_descriptor(desc: VarietyDescriptor, h: int | None, q: int) -> Family:
    """The record of a valid descriptor; raises InputError on any bad input.

    Checks q (a prime power), the family, its parameter schema and ranges,
    and h (>= 0 where the degree is free, else 1; None skips the check).
    """
    check_order(q)
    fam = FAMILIES.get(desc.family) if isinstance(desc.family, str) else None
    if fam is None:
        raise InputError(f"unknown variety family {desc.family!r}")
    require_fields(f"{desc.family} descriptor", desc.params, fam.params, fam.optional)
    if fam.check:
        fam.check(desc.params, q)
    if h is not None:
        require_kind("h", h, "int")
        if h < 0 or (h != 1 and not fam.h_free):
            need = "h >= 0" if fam.h_free else f"h = 1 ({desc.family} fixes its own basis)"
            raise InputError(f"need {need}, got h = {h}")
    return fam


# -- entry points -----------------------------------------------------------------


def build_point_set(desc: VarietyDescriptor, fld: GF) -> PointSet:
    """Evaluation point set for a descriptor (basis-carrying families drop it)."""
    return check_descriptor(desc, None, fld.q).points(desc.params, fld)


def predict(desc: VarietyDescriptor, h: int, q: int) -> Prediction:
    """Expected (n, k, d) of the degree-h code of a descriptor over GF(q)."""
    fam = check_descriptor(desc, h, q)
    if fam.predict is None:
        raise OutOfTheoremRange(
            f"no closed-form parameter theorem implemented for family {desc.family!r}",
            hypothesis="family with stated exact parameters",
        )
    return fam.predict(desc.params, h, q)


def applicable_bounds(
    desc: VarietyDescriptor, h: int, q: int, n: int
) -> list[bounds.BoundReport]:
    """Every lower-bound calculator that applies to this code, evaluated.

    A family's candidate applies unless its calculator refuses the inputs
    with an InputError.  n must be the actual block length (for these
    families, the full set of rational points, which the section-count
    bounds assume).
    """
    fam = check_descriptor(desc, h, q)
    reports = []
    for call in fam.bounds(desc.params, h, q, n) if fam.bounds else []:
        with suppress(InputError):
            reports.append(call())
    return reports


def lower_bound_value(report: bounds.BoundReport) -> int:
    """The d lower bound asserted by a report, whatever its value shape."""
    v = report.value
    if isinstance(v, dict):
        if "d_lower" in v:
            return v["d_lower"]
        if "cayley_bacharach" in v:
            return v["cayley_bacharach"]
        raise ValueError(f"report {report.name} carries no d lower bound")
    return int(v)
