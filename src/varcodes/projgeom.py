"""Projective spaces over GF(q): point enumeration, monomials, forms.

A set of points is an (N, m + 1) numpy array of element indices in the
field's array dtype, one canonical point per row (first nonzero coordinate
equal to 1).  Enumeration order is fixed once and for all: points grouped
by the position of the leading 1 (so the affine x0 = 1 block comes first),
ties broken lexicographically on the remaining coordinates in element-index
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from math import comb

import numpy as np

from .errors import InputError, check_budget
from .gf import GF

Exponents = tuple[int, ...]

CHUNK_ENTRIES = 1 << 16  # term values that evaluate_forms holds at once


def enumerate_projective_points(
    m: int, fld: GF, affine_only: bool = False
) -> np.ndarray:
    """Canonical representatives of P^m(F_q), one row each, in the fixed order.

    With affine_only, just the x0 = 1 block of size q^m (the complement of
    the hyperplane x0 = 0).  Raises BudgetExceeded, before any allocation,
    if the points and the q^m x m coordinate tails hold over DEFAULT_BUDGET
    entries.
    """
    if m < 1:
        raise InputError(f"ambient dimension must be >= 1, got {m}")
    q, dtype = fld.q, fld.array_ops().dtype
    rows = q**m if affine_only else (q ** (m + 1) - 1) // (q - 1)
    check_budget(
        rows * (m + 1) + q**m * m, f"enumerating P^{m}(F_{q})", unit="array entries"
    )
    # F_q^m in lex order: its first q^k rows are 0 but for the last k coordinates.
    tails = np.indices((q,) * m, dtype).reshape(m, -1).T
    blocks = []
    for pivot in range(1 if affine_only else m + 1):
        block = np.zeros((q ** (m - pivot), m + 1), dtype)
        block[:, pivot] = 1
        block[:, pivot + 1 :] = tails[: len(block), pivot:]
        blocks.append(block)
    return np.concatenate(blocks)


def canonicalize(fld: GF, v) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        raise InputError("cannot canonicalize the zero vector")
    if lead == 1:
        return tuple(v)
    inv = fld.inv(lead)
    return tuple(fld.mul(inv, x) for x in v)


def enumerate_monomials(m: int, h: int) -> list[Exponents]:
    """Exponent vectors of the C(m+h, h) degree-h monomials in x0..xm.

    Graded-lex order with x0 heaviest: x0^h first, xm^h last.  Raises
    BudgetExceeded, before any tuple is made, if the exponent vectors hold
    over DEFAULT_BUDGET entries.
    """
    if m < 0 or h < 0:
        raise InputError("need m >= 0 and h >= 0")
    what = f"enumerating the degree-{h} monomials in x0..x{m}"
    check_budget(comb(m + h, h) * (m + 1), what, unit="array entries")

    def rec(nvars: int, deg: int):
        if nvars == 1:
            yield (deg,)
            return
        for e0 in range(deg, -1, -1):
            for rest in rec(nvars - 1, deg - e0):
                yield (e0,) + rest

    return list(rec(m + 1, h))


def monomial_name(expo: Exponents) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass
class Form:
    """Homogeneous polynomial over GF(q), sparse exponent-vector terms.

    terms maps exponent tuples (length ambient + 1, entries summing to the
    degree) to nonzero coefficients.
    """

    field: GF
    ambient: int
    degree: int
    terms: dict[Exponents, int] = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for expo, c in self.terms.items():
            expo = tuple(expo)
            if len(expo) != self.ambient + 1:
                raise InputError(f"exponent vector {expo} does not have {self.ambient + 1} entries")
            if sum(expo) != self.degree:
                raise InputError(
                    f"term {expo} has degree {sum(expo)}, form has degree {self.degree}"
                )
            if not 0 <= c < self.field.q:
                raise InputError(f"coefficient {c} is not an element index")
            if c != 0:
                clean[expo] = c
        self.terms = clean

    @classmethod
    def monomial(cls, fld: GF, expo: Exponents, coeff: int = 1) -> "Form":
        return cls(fld, len(expo) - 1, sum(expo), {tuple(expo): coeff})

    @classmethod
    def from_coeff_vector(
        cls, fld: GF, monomials: list[Exponents], coeffs: list[int]
    ) -> "Form":
        terms = {e: c for e, c in zip(monomials, coeffs) if c}
        degree = sum(monomials[0]) if monomials else 0
        return cls(fld, len(monomials[0]) - 1, degree, terms)

    def coefficient(self, expo: Exponents) -> int:
        return self.terms.get(tuple(expo), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def partial(self, i: int) -> "Form":
        """Formal partial derivative with respect to x_i (degree drops by 1).

        Lowering x_i's exponent keeps distinct terms distinct, so no two
        terms merge; terms whose exponent of x_i is 0 mod p vanish.
        """
        F = self.field
        terms = {
            expo[:i] + (expo[i] - 1,) + expo[i + 1 :]: F.mul(c, F.scalar(expo[i]))
            for expo, c in self.terms.items()
            if expo[i] % F.p
        }
        return Form(F, self.ambient, max(self.degree - 1, 0), terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            name = monomial_name(expo)
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts)

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "degree": self.degree,
            "terms": [[list(e), c] for e, c in sorted(self.terms.items(), reverse=True)],
        }

    @classmethod
    def from_dict(cls, fld: GF, d: dict) -> "Form":
        return cls(
            fld,
            int(d["ambient"]),
            int(d["degree"]),
            {tuple(map(int, e)): int(c) for e, c in d["terms"]},
        )


def evaluate_forms(forms: list[Form], points) -> np.ndarray:
    """Values of every form at every point, as a (forms, points) index array.

    points is an (N, ambient + 1) index array, or a list of coordinate
    tuples that np.asarray turns into one.  Each form is padded with
    zero-coefficient terms up to the longest form's term count, its width,
    so the terms of all forms are the rows of one exponent matrix, width
    rows per form.  GF.array_ops.terms evaluates all of them at a chunk of
    points by one matrix product of exponents and logs, and the field's own
    add sums each form's width values.  A form with no terms stays 0.  A
    chunk holds at most CHUNK_ENTRIES term values, whatever N is.
    """
    ops = forms[0].field.array_ops()
    x = np.asarray(points, ops.dtype)
    for f in forms:
        if x.shape[1] != f.ambient + 1:
            raise InputError(f"point has {x.shape[1]} coordinates, form expects {f.ambient + 1}")
    width = max(len(f.terms) for f in forms)
    out = np.zeros((len(forms), len(x)), ops.dtype)
    if not width:
        return out
    blank = ((0,) * x.shape[1], 0)  # coefficient 0: the value 0
    padded = [t for f in forms for t in [*f.terms.items()] + [blank] * (width - len(f.terms))]
    expos = np.array([e for e, _ in padded])
    coeffs = np.array([c for _, c in padded], ops.dtype)
    step = max(1, CHUNK_ENTRIES // len(padded))
    for lo in range(0, len(x), step):
        values = ops.terms(x[lo : lo + step], expos, coeffs).reshape(len(forms), width, -1)
        out[:, lo : lo + step] = reduce(ops.add, values.swapaxes(0, 1))
    return out
