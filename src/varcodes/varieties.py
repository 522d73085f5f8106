"""Evaluation point sets for each variety family.

Every construction is deterministic: points come out in the fixed
enumeration order of projgeom, subspaces in pivot-pattern order, blown-up
directions in P^1 order.  A PointSet holds the ordered evaluation columns
(projective coordinate vectors, one row each of an index array) together
with per-point origin labels.  Constructions select rows with masks, join
them with np.concatenate and form products by broadcasting GF.array_ops.

Grassmann points are Pluecker coordinates, computed for the stacked RREF
bases of every pivot pattern in one batch.  Schubert points are the Pluecker
section p_S = 0 for every S not below alpha (Ghorpade-Tsfasman, "Schubert
varieties, linear codes and enumerative combinatorics", Finite Fields Appl.
2005).

Arguments are trusted: descriptors are validated once, against the family
table (`families.check_descriptor`), before any construction here runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import cache, reduce
from itertools import combinations, compress
from math import comb, prod
from operator import or_
from typing import Any

import numpy as np

from . import bounds
from .errors import (
    AmbiguousClassification,
    DimensionMismatch,
    GeneralPositionFailure,
    InternalError,
    InvalidParams,
    NotQuadratic,
    check_budget,
    invariant,
)
from .gf import GF
from .linalg import Matrix, det, maximal_minors, pivot_patterns, rank_and_kernel
from .projgeom import (
    Form,
    canonicalize,
    enumerate_monomials,
    enumerate_projective_points,
    evaluate_forms,
)


def point_labels(points: np.ndarray, fld: GF) -> list[str]:
    """The label "(x0:x1:...)" of each row of a point array over fld."""
    return ["(" + ":".join(p) + ")" for p in fld.array_ops().text[points].tolist()]


@dataclass
class PointSet:
    """Ordered, labeled evaluation columns in a fixed ambient dimension.

    points is an (N, ambient + 1) array of element indices in the field's
    array dtype, one evaluation column per row.
    """

    field: GF
    ambient: int
    points: np.ndarray
    labels: list[str]

    def __len__(self) -> int:
        return len(self.points)

    def __post_init__(self):
        if len(self.labels) != len(self.points):
            raise DimensionMismatch("labels and points must have equal length")

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "ambient": self.ambient,
            "n": len(self.points),
            "points": self.points.tolist(),
            "labels": self.labels,
        }


@dataclass
class VarietyDescriptor:
    """Family tag plus parameters, with a canonical JSON encoding."""

    family: str
    params: dict[str, Any] = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"family": self.family, **self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "VarietyDescriptor":
        if not isinstance(d, dict):
            raise InvalidParams(f"a descriptor must be a JSON object, got {d!r}")
        d = dict(d)
        try:
            family = d.pop("family")
        except KeyError:
            raise InvalidParams("descriptor needs a 'family' key") from None
        return cls(family, d)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


# -- quadrics -------------------------------------------------------------------


def irreducible_binary_quadratic_coeff(fld: GF) -> int:
    """Smallest c (index order) with x^2 + x + c irreducible over GF(q)."""
    for c in fld.elements():
        if all(fld.add(fld.add(fld.mul(t, t), t), c) != 0 for t in fld.elements()):
            return c
    raise InternalError("no irreducible quadratic x^2 + x + c exists")


def _pair_exponent(n: int, i: int, j: int) -> tuple[int, ...]:
    """The exponent vector of x_i * x_j in n variables (of x_i^2 when i == j)."""
    return tuple((k == i) + (k == j) for k in range(n))


def quadric_normal_form(m: int, w: int, fld: GF) -> Form:
    """Canonical nondegenerate quadric of character w in P^m.

    w = 1 (parabolic, m even): x0^2 + x1*x2 + ...
    w = 2 (hyperbolic, m odd):  x0*x1 + x2*x3 + ...
    w = 0 (elliptic, m odd):    x0^2 + x0*x1 + c*x1^2 + x2*x3 + ...
    """
    pairs: dict[tuple[int, int], int] = {}  # (i, j) -> coefficient of x_i * x_j
    if w == 1:
        pairs[0, 0] = 1
        start = 1
    elif w == 2:
        pairs[0, 1] = 1
        start = 2
    else:
        c = irreducible_binary_quadratic_coeff(fld)
        pairs.update({(0, 0): 1, (0, 1): 1, (1, 1): c})
        start = 2
    for i in range(start, m, 2):
        pairs[i, i + 1] = 1
    return Form(fld, m, 2, {_pair_exponent(m + 1, i, j): c for (i, j), c in pairs.items()})


def _quadric_rank(f: Form) -> int:
    """Rank of a quadratic form: codimension of its translation-invariant space."""
    fld = f.field
    n = f.ambient + 1

    def polar(i: int, j: int) -> int:
        """Entry (i, j) of the polar form b(x, y) = f(x + y) - f(x) - f(y)."""
        c = f.coefficient(_pair_exponent(n, i, j))
        return c if i != j else fld.mul(fld.scalar(2), c)

    gram = [[polar(i, j) for j in range(n)] for i in range(n)]
    _, radical = rank_and_kernel(Matrix(fld, gram))
    if fld.p != 2:
        # In odd characteristic f vanishes on the radical automatically.
        return n - radical.nrows
    # Characteristic 2: f restricted to the radical is Frobenius-semilinear,
    # so its kernel there has codimension 0 or 1.
    nonzero = radical.nrows and evaluate_forms([f], radical.rows).any()
    dim_t = radical.nrows - (1 if nonzero else 0)
    return n - dim_t


def classify_quadric(f: Form) -> tuple[int, int]:
    """(rank, character) of a nonzero degree-2 form.

    The rank comes from the translation-invariant subspace; the character
    from matching the exhaustive point count of V(f) against the closed-form
    cone counts, with a defensive uniqueness check.
    """
    if f.degree != 2 or f.is_zero():
        raise NotQuadratic("classification needs a nonzero quadratic form")
    fld = f.field
    m = f.ambient
    rho = _quadric_rank(f)
    measured = int((evaluate_forms([f], enumerate_projective_points(m, fld)) == 0).sum())
    candidates = [1] if rho % 2 == 1 else [0, 2]
    matches = [
        w
        for w in candidates
        if bounds.quadric_count(m, w, fld.q, rho) == measured
    ]
    if len(matches) != 1:
        raise AmbiguousClassification(
            f"rank {rho}, {measured} points matches characters {matches}"
        )
    return rho, matches[0]


def _zero_locus(forms: list[Form]) -> PointSet:
    """All canonical common zeros of forms in P^m, in enumeration order."""
    fld, m = forms[0].field, forms[0].ambient
    pts = enumerate_projective_points(m, fld)
    pts = pts[~evaluate_forms(forms, pts).any(axis=0)]
    return PointSet(fld, m, pts, point_labels(pts, fld))


def hypersurface_points(f: Form) -> PointSet:
    """All canonical points of V(f) in enumeration order."""
    return _zero_locus([f])


def hermitian_form(m: int, r: int, fld: GF) -> Form:
    """x0^(r+1) + ... + xm^(r+1) over GF(r^2)."""
    terms = {
        tuple((r + 1) if k == i else 0 for k in range(m + 1)): 1
        for i in range(m + 1)
    }
    return Form(fld, m, r + 1, terms)


# -- Grassmannians, Schubert varieties, flags ------------------------------------


def grassmann_points(l: int, m: int, fld: GF) -> PointSet:
    """One canonical maximal-minor coordinate vector per l-subspace of F_q^m.

    Subspaces come by pivot pattern, each as its RREF basis; the bases of
    all patterns are stacked and their minors computed in one batch.  Raises
    BudgetExceeded, before any allocation, if the batch's largest array
    would hold over DEFAULT_BUDGET entries: one row per subspace, of its
    l * m basis entries or of its minors of the most numerous size.
    """
    q, ops = fld.q, fld.array_ops()
    expected = bounds.gaussian_binomial(m, l, q)
    what = f"computing the Pluecker coordinates of G({l},{m}) over F_{q}"
    check_budget(expected * max(l * m, comb(m, min(l, m // 2))), what, unit="array entries")
    blocks = []
    for pivots, free in pivot_patterns(l, m):
        reps = np.zeros((q ** len(free), l, m), ops.dtype)
        reps[:, range(l), pivots] = 1
        if free:
            rows, cols = zip(*free)
            reps[:, rows, cols] = np.indices((q,) * len(free)).reshape(len(free), -1).T
        blocks.append(reps)
    reps = np.concatenate(blocks)
    invariant(len(reps) == expected, f"{len(reps)} subspaces, expected {expected}")
    coords = maximal_minors(fld, reps)
    lead = coords[np.arange(len(coords)), (coords != 0).argmax(axis=1)]
    invariant(bool((lead == 1).all()), "pivot minor should lead")
    label = "span[" + ", ".join(["[" + ", ".join(["{}"] * m) + "]"] * l) + "]"
    labels = list(map(label.format, *ops.text[reps.reshape(len(reps), -1).T].tolist()))
    return PointSet(fld, coords.shape[1] - 1, coords, labels)


def schubert_points(l: int, m: int, alpha: list[int], fld: GF) -> PointSet:
    """The Schubert variety of alpha: dim(W meet A_alpha_i) >= i for all i.

    It is the linear section of the Grassmannian by p_S = 0 for every column
    subset S = (s_1 < ... < s_l) with some s_i > alpha_i (1-based), so its
    points are the Grassmann points whose other coordinates all vanish.
    """
    grass = grassmann_points(l, m, fld)
    outside = [
        j
        for j, S in enumerate(combinations(range(m), l))
        if any(s >= a for s, a in zip(S, alpha))  # 0-based s, so s + 1 > a
    ]
    keep = ~grass.points[:, outside].any(axis=1)
    return PointSet(fld, grass.ambient, grass.points[keep], list(compress(grass.labels, keep)))


def flag_points(m: int, fld: GF) -> PointSet:
    """Incident (point, hyperplane) pairs of P^(m-1), Segre-embedded.

    Coordinates z_ij = x_i * y_j for x the point, y the hyperplane
    coefficients; incidence makes the diagonal trace vanish.  Raises
    BudgetExceeded, before any allocation, if the table of x_i * y_i over
    all pairs would hold over DEFAULT_BUDGET entries.
    """
    ops = fld.array_ops()
    reps = enumerate_projective_points(m - 1, fld)
    what = f"pairing the points and hyperplanes of P^{m - 1}(F_{fld.q})"
    check_budget(len(reps) ** 2 * m, what, unit="array entries")
    products = ops.mul(reps[:, None], reps[None])  # x_i * y_i for every pair (x, y)
    trace = reduce(ops.add, np.moveaxis(products, -1, 0))
    x, y = np.nonzero(trace == 0)  # x-major, as the pairs are enumerated
    pts = ops.mul(reps[x, :, None], reps[y, None, :]).reshape(len(x), m * m)
    names = point_labels(reps, fld)
    labels = [f"P={names[i]} H={names[j]}" for i, j in zip(x.tolist(), y.tolist())]
    expected = bounds.flag_count(m, fld.q)
    invariant(len(pts) == expected, f"{len(pts)} flags, expected {expected}")
    return PointSet(fld, m * m - 1, pts, labels)


# -- Del Pezzo surfaces ----------------------------------------------------------


def _general_position_select(l: int, fld: GF) -> list[int]:
    """Indices of the first l points of P^2 (in enumeration order) in general position.

    Depth-first over the enumeration order (equals the plain greedy scan
    whenever that scan succeeds): no three collinear, no six on a conic.
    Both are incidences on point indices; point sets are int bitmasks.  The
    line through points a and b is b plus the q points a + t*b; candidates on
    a line through two chosen points are skipped.  Five points, no three
    collinear, lie on one conic, and a sixth lies on it iff the six points'
    degree-2 monomials are dependent.

    For l = 6 existence is decided first: PGL(3, q) is transitive on frames,
    so six such points exist iff two more complete the frame (1:0:0), (0:1:0),
    (0:0:1), (1:1:1).  That settles GF(5), where every 6-arc is a conic
    (Segre), in a few steps instead of after every 5-arc.
    """
    plane = enumerate_projective_points(2, fld)
    points = plane.tolist()
    index = {tuple(p): i for i, p in enumerate(points)}
    veronese = evaluate_forms([Form.monomial(fld, e) for e in enumerate_monomials(2, 2)], plane).T

    @cache
    def line_through(i: int, j: int) -> int:
        a, b = points[i], points[j]
        mask = 1 << j
        for t in fld.elements():
            p = canonicalize(fld, tuple(fld.add(x, fld.mul(t, y)) for x, y in zip(a, b)))
            mask |= 1 << index[p]
        return mask

    chosen: list[int] = []

    def search(start: int, blocked: int) -> bool:
        if len(chosen) == l:
            return True
        candidates = ~blocked >> start << start & (1 << len(points)) - 1
        while candidates:
            c = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if len(chosen) == 5 and det(Matrix(fld, veronese[chosen + [c]])) == 0:
                continue
            chosen.append(c)
            now_blocked = blocked
            for i in chosen[:-1]:
                now_blocked |= line_through(i, c)
            if search(c + 1, now_blocked):
                return True
            chosen.pop()
        return False

    exists = True
    if l == 6:
        chosen[:] = [index[p] for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
        exists = search(0, reduce(or_, (line_through(a, b) for a, b in combinations(chosen, 2))))
        chosen.clear()
    if not (exists and search(0, 0)):
        raise GeneralPositionFailure(
            f"no {l} points of P^2(F_{fld.q}) in general position found"
        )
    return chosen


def delpezzo_points(l: int, fld: GF) -> tuple[PointSet, list[Form], np.ndarray]:
    """Evaluation data for the blow-up of P^2 at l general points, q > 4.

    Returns the point set (columns of cubic-basis values: ordinary points of
    P^2 minus the base points, then q+1 directional columns per base point),
    the basis of the 10 - l cubics through the base points, and the base
    points themselves as an (l, 3) array.  Whether the configuration carries
    an Eckardt point is only visible downstream, from the measured minimum
    distance.
    """
    chosen = _general_position_select(l, fld)
    plane = enumerate_projective_points(2, fld)
    base = plane[chosen]
    cubics = enumerate_monomials(2, 3)
    basis = [Form.monomial(fld, e) for e in cubics]
    if l:
        r, ker = rank_and_kernel(Matrix(fld, evaluate_forms(basis, base).T))
        invariant(r == l, "base points failed to impose independent conditions")
        basis = [Form.from_coeff_vector(fld, cubics, v) for v in ker.rows.tolist()]

    ops = fld.array_ops()
    ordinary = np.delete(plane, chosen, axis=0)
    columns = [evaluate_forms(basis, ordinary).T]
    labels = point_labels(ordinary, fld)
    directions = enumerate_projective_points(1, fld)
    u, v = directions[:, :1], directions[:, 1:]
    names = point_labels(directions, fld)
    # grads[f, i, j]: df/dx_i of basis form f at base point j.
    grads = evaluate_forms([f.partial(i) for f in basis for i in range(3)], base)
    grads = grads.reshape(len(basis), 3, len(base))
    for j, (bp, bp_name) in enumerate(zip(base, point_labels(base, fld))):
        pivot = int(np.flatnonzero(bp)[0])  # leading 1
        a, b = [i for i in range(3) if i != pivot]
        # Direction (u, v) at bp gives the column of u * df/dx_a + v * df/dx_b.
        cols = ops.add(ops.mul(u, grads[:, a, j]), ops.mul(v, grads[:, b, j]))
        invariant(
            bool(cols.any(axis=1).all()), "anticanonical system failed to separate a direction"
        )
        columns.append(cols)
        labels += [f"E{bp_name} dir {d}" for d in names]
    pts = np.concatenate(columns)
    expected = fld.q * fld.q + fld.q + 1 + l * fld.q
    invariant(len(pts) == expected, f"{len(pts)} columns, expected {expected}")
    return PointSet(fld, len(basis) - 1, pts, labels), basis, base


# -- toric, complete intersection, P1 x P1 ----------------------------------------


def toric_points(s: int, fld: GF) -> PointSet:
    """The (q-1)^s points of the torus, embedded as (1 : t_1 : ... : t_s)."""
    pts = enumerate_projective_points(s, fld, affine_only=True)
    pts = pts[pts.all(axis=1)]
    return PointSet(fld, s, pts, [f"t={tuple(t)}" for t in pts[:, 1:].tolist()])


def toric_basis(lattice_points: list[tuple[int, ...]], fld: GF) -> tuple[list[Form], list[str]]:
    """The (homogenized) monomial basis of a set of lattice points.

    Each lattice point u gives the monomial t^u, homogenized to degree
    max(|u|) with a power of x0 (values on the embedded torus are unchanged
    since x0 = 1 there).
    """
    reduced = [tuple(x % (fld.q - 1) for x in u) for u in lattice_points]
    degree = max(sum(u) for u in reduced)
    basis = [Form.monomial(fld, (degree - sum(u),) + u) for u in reduced]
    return basis, [f"t^{tuple(u)}" for u in lattice_points]


def complete_intersection_points(forms: list[Form]) -> PointSet:
    """Common zero locus of m hypersurfaces in P^m, with a degree-product check."""
    points = _zero_locus(forms)
    expected = prod(f.degree for f in forms)
    if len(points) != expected:
        warnings.warn(
            f"zero locus has {len(points)} points, degree product is {expected}: "
            "not a reduced complete intersection, Cayley-Bacharach bounds do not apply",
            stacklevel=2,
        )
    return points


def product_p1p1_points(fld: GF) -> PointSet:
    """All (q+1)^2 pairs of P^1 points, coordinates concatenated."""
    line = enumerate_projective_points(1, fld)
    pts = np.hstack([np.repeat(line, len(line), axis=0), np.tile(line, (len(line), 1))])
    names = point_labels(line, fld)
    return PointSet(fld, 3, pts, [f"{a}x{b}" for a in names for b in names])


def p1p1_basis(alpha: int, beta: int, fld: GF) -> tuple[list[Form], list[str]]:
    """Bidegree (alpha, beta) monomials as degree alpha+beta forms in 4 variables.

    Raises BudgetExceeded, before any form is made, if their exponent vectors
    hold over DEFAULT_BUDGET entries.
    """
    what = f"enumerating the bidegree ({alpha},{beta}) monomials in x0,x1,y0,y1"
    check_budget((alpha + 1) * (beta + 1) * 4, what, unit="array entries")
    basis = []
    labels = []
    for i in range(alpha + 1):
        for j in range(beta + 1):
            expo = (alpha - i, i, beta - j, j)
            basis.append(Form.monomial(fld, expo))
            labels.append(f"x0^{alpha - i}*x1^{i}*y0^{beta - j}*y1^{j}")
    return basis, labels
