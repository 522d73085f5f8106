"""Evaluation codes and exact parameter measurement.

Two exact engines measure everything.  The bit engine walks the RREF pivot
patterns of r x k message matrices, so each r-dimensional subcode is met
once, and reports the support size of every subcode.  Codewords are numpy
vectors of field elements, added and scaled by GF.array_ops.  The tables of
codewords are built once per enumeration.  Supports are packed to machine
words, OR'ed and counted with np.bitwise_count.  The r = 1 subcodes are
the scalar classes of nonzero codewords, so the minimum distance and the
weight distribution are reductions over r = 1, and the r-th generalized
Hamming weight is the minimum over rank r.

Over GF(q) with q <= 7 the scalar classes instead go through BLAS float32
products of one-hot rows (_class_weights): a weight is the number of
positions where the two halves of a message disagree (n minus a hyperplane
section), and one product counts them for a whole block of classes.  Where
one operand holds whole rows, each one-hot operand is built once, not once
per pair of blocks.  The cost grows with q (2q flops per class and
position), so from GF(8) on, and for r >= 2, the bit engine runs.  A split
of the generator whose column halves repeat (long codes with few rows, such
as the Grassmann codes) is folded: its products run over the distinct
halves, with a matrix counting the columns of each pair, which each split
chooses by comparing flop counts.  Both engines count every class once, so
the budget estimate n * [k choose r]_q describes either; on folded splits
it is an upper bound.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt

import numpy as np

from .bounds import gaussian_binomial
from .errors import (
    DEFAULT_BUDGET,
    EmptyPointSet,
    InputError,
    InvalidParams,
    UnexpectedDistance,
    check_budget,
    invariant,
)
from .families import build_point_set, check_descriptor, predict, require_fields
from .gf import GF
from .linalg import Matrix, pivot_patterns, rref
from .projgeom import Form, enumerate_monomials, evaluate_forms, monomial_name
from .varieties import PointSet, VarietyDescriptor, delpezzo_points

ARTIFACT_FORMAT_VERSION = 1
_ARTIFACT_KINDS = {
    "format_version": "int",
    "field": "dict",
    "n": "int",
    "k": "int",
    "kernel_dim": "int",
    "generator": "list[list[int]]",
    "point_labels": "list[str]",
    "basis_labels": "list[str]",
    "provenance": "dict",
}
_FIELD_KINDS = {"p": "int", "e": "int", "q": "int", "modulus": "list[int]"}


@dataclass
class WeightEnumerator:
    """Histogram A_w of codeword Hamming weights; sums to q^k."""

    counts: dict[int, int]

    def support(self) -> list[int]:
        return sorted(w for w, c in self.counts.items() if c and w > 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        return {str(w): self.counts[w] for w in sorted(self.counts) if self.counts[w]}


@dataclass(eq=False)
class LinearCode:
    """Linear [n, k] code given by a full-rank generator matrix.

    build_evaluation_code stores the generator in RREF; from_dict keeps the
    stored one as it is (it may be any full-rank basis, such as a row
    transform of the RREF with permuted columns), and the engines need no
    particular form.  The generator's rows are one index array (see Matrix),
    which the enumeration engine reads as it is; only to_dict and to_csv make
    lists.
    """

    field: GF
    generator: Matrix
    point_labels: list[str]
    basis_labels: list[str]
    provenance: dict
    kernel_dim: int = 0

    @property
    def n(self) -> int:
        return self.generator.ncols

    @property
    def k(self) -> int:
        return self.generator.nrows

    def to_dict(self) -> dict:
        return {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "field": self.field.to_dict(),
            "n": self.n,
            "k": self.k,
            "kernel_dim": self.kernel_dim,
            "generator": self.generator.rows.tolist(),
            "point_labels": self.point_labels,
            "basis_labels": self.basis_labels,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        require_fields("artifact", d, _ARTIFACT_KINDS, {"kernel_dim", "provenance"})
        if d["format_version"] != ARTIFACT_FORMAT_VERSION:
            raise InvalidParams(f"unsupported artifact format version {d['format_version']!r}")
        require_fields("artifact field", d["field"], _FIELD_KINDS, {"q", "modulus"})
        fld = GF.from_dict(d["field"])
        rows = d["generator"]
        # Range-check the JSON ints before they become array entries.
        if any(row and not (min(row) >= 0 and max(row) < fld.q) for row in rows):
            raise InvalidParams(f"artifact generator has an entry outside GF({fld.q})")
        gen = Matrix(fld, rows)
        if (gen.nrows, gen.ncols, len(d["point_labels"])) != (d["k"], d["n"], d["n"]):
            raise InvalidParams(
                f"artifact says k={d['k']}, n={d['n']}, but has a {gen.nrows} x "
                f"{gen.ncols} generator and {len(d['point_labels'])} point labels"
            )
        _, pivots = rref(gen)
        if not 0 < len(pivots) == gen.nrows:
            raise InvalidParams("artifact generator is not full rank")
        return cls(
            fld,
            gen,
            list(d["point_labels"]),
            list(d["basis_labels"]),
            dict(d.get("provenance", {})),
            d.get("kernel_dim", 0),
        )

    def to_csv(self) -> str:
        text = self.field.array_ops().text
        return "\n".join(map(",".join, text[self.generator.rows].tolist())) + "\n"


# -- construction -----------------------------------------------------------------


def build_evaluation_code(
    points: PointSet,
    basis: list[Form] | None = None,
    h: int | None = None,
    basis_labels: list[str] | None = None,
    provenance: dict | None = None,
) -> LinearCode:
    """Code of the evaluation map basis -> (f(P1), ..., f(Pn)).

    Either an explicit basis of forms or a degree h (whole monomial basis)
    must be given.  The generator is the row basis of the RREF of the raw
    evaluation matrix; the kernel dimension (forms vanishing on all of S)
    is recorded.
    """
    if len(points) == 0:
        raise EmptyPointSet("no evaluation points")
    fld = points.field
    if basis is None:
        if h is None:
            raise InvalidParams("need a basis or a degree h")
        monos = enumerate_monomials(points.ambient, h)
        basis = [Form.monomial(fld, e) for e in monos]
        basis_labels = [monomial_name(e) for e in monos]
    if basis_labels is None:
        basis_labels = [str(f) for f in basis]
    reduced, pivots = rref(Matrix(fld, evaluate_forms(basis, points.points)))
    k = len(pivots)
    if k == 0:
        raise InvalidParams("every basis form vanishes on the whole point set")
    gen = Matrix(fld, reduced.rows[:k])
    return LinearCode(
        fld,
        gen,
        list(points.labels),
        basis_labels,
        provenance or {},
        kernel_dim=len(basis) - k,
    )


def code_from_descriptor(
    desc: VarietyDescriptor, h: int, fld: GF
) -> LinearCode:
    """Build the degree-h evaluation code of a variety descriptor."""
    fam = check_descriptor(desc, h, fld.q)
    prov = {"descriptor": desc.to_dict(), "h": h, "q": fld.q}
    if fam.blow_up is not None:
        # The columns already hold the values of the cubics through the base
        # points, so the code evaluates the coordinate functions.
        points, cubics, _ = delpezzo_points(fam.blow_up(desc.params), fld)
        coords = [Form.monomial(fld, e) for e in enumerate_monomials(points.ambient, 1)]
        labels = [str(f) for f in cubics]
        return build_evaluation_code(points, coords, basis_labels=labels, provenance=prov)
    points = build_point_set(desc, fld)
    basis, labels = fam.basis(desc.params, fld) if fam.basis else (None, None)
    return build_evaluation_code(points, basis, h, labels, prov)


# -- the enumeration engine ---------------------------------------------------------

BLOCK = 1 << 20  # field elements in one bit-engine table; the products take BLOCK // 4 floats


def _enumerate(code: LinearCode, r: int, fold) -> Iterator:
    """fold(support sizes) of every block of the r-dimensional subcodes, as made.

    A subcode is the row space of one RREF message matrix: row i is
    g[p_i] + sum of x_c g[c] over the columns c left free in row i.  For
    r = 1 these are the scalar classes of nonzero codewords.  The free
    entries of a pivot pattern split into a table of the last ones (at most
    BLOCK elements, at least one entry) and a walk over the rest; one walk
    step against the whole table is a block.  The table is closed under
    negation, so w - t runs over the same rows as w + t, and w - t is nonzero
    exactly where t != w.

    Tables are built once per call: span is memoized on its columns and
    built from the span of their suffix, so every r = 1 pattern reuses one
    chain of tables.  Supports are packed to bits, one uint8/16/32 word per
    codeword when n <= 32 and whole uint64 words otherwise, OR'ed, and
    counted with np.bitwise_count.
    """
    n, q = code.n, code.field.q
    ops = code.field.array_ops()
    dtype, add, multiples = ops.dtype, ops.add, ops.multiples
    nbytes = next(b for b in (1, 2, 4) if 8 * b >= n) if n <= 32 else 8 * -(-n // 64)
    word, width = np.dtype(f"u{min(nbytes, 8)}"), 8 * nbytes
    g = np.zeros((code.k, width), dtype=dtype)  # zero-padded to whole words
    g[:, :n] = code.generator.rows
    nwords = nbytes // word.itemsize

    @lru_cache(maxsize=None)
    def span(cols):
        """Every combination of the rows g[c], c in cols; cols[0] varies slowest."""
        if not cols:
            return np.zeros((1, width), dtype=dtype)
        return add(multiples(g[cols[0]])[:, None], span(cols[1:])[None]).reshape(-1, width)

    def pack(nonzero):
        return np.packbits(nonzero).view(word).reshape(-1, nwords)

    def blocks(pivots, free):
        t = min(len(free), 1)
        while t < len(free) and q ** (t + 1) * n <= BLOCK:
            t += 1
        head, tail = free[: len(free) - t], free[len(free) - t :]
        j = tail[0][0] if tail else r - 1
        table = span(tuple(c for i, c in tail if i == j))
        mask = np.zeros((1, nwords), dtype=word)
        for row in range(j + 1, r):
            sup = pack(add(g[pivots[row]], span(tuple(c for i, c in tail if i == row))) != 0)
            mask = (mask[:, None] | sup[None]).reshape(-1, nwords)
        mults = {c: multiples(g[c]) for _, c in head}
        for xs in product(range(q), repeat=len(head)):
            rows = list(g[list(pivots[: j + 1])])
            for (i, c), x in zip(head, xs):
                rows[i] = add(rows[i], mults[c][x])
            packed = pack(table != rows[j])
            if r > 1:
                fixed = mask
                for row in rows[:j]:
                    fixed = fixed | pack(row != 0)
                packed = (fixed[:, None] | packed).reshape(-1, nwords)
            # One row per word: summing whole rows is faster than short rows.
            counts = np.bitwise_count(packed.T, order="C")
            yield fold(counts[0] if nwords == 1 else counts.sum(axis=0, dtype=np.intp))

    try:
        for pattern in pivot_patterns(r, code.k):
            yield from blocks(*pattern)
    finally:
        span.cache_clear()


def _onehot(test, t, q: int) -> np.ndarray:
    """Row i is test(t[i, j], x) for every x in GF(q), then every j, in float32."""
    out = np.empty((len(t), q, t.shape[1]), dtype=np.float32)
    for x in range(q):
        test(t, x, out=out[:, x], casting="unsafe")
    return out.reshape(len(t), -1)


def _distinct_columns(part: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of part, and the index of each column among them."""
    key = np.zeros(part.shape[1], dtype=np.int64)  # base-q digits, below q^rows
    for row in part:
        key = key * q + row
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    return part[:, first], index


# Splits whose plain products take fewer multiply-adds are not grouped: the
# grouping costs about 0.1 ms, and 16 BLOCK multiply-adds of float32 products
# take about 0.5 ms, so below that it could not save much more than it costs.
_FOLD_FLOOR = 16 * BLOCK


def _fold(g: np.ndarray, a: int, q: int, ops) -> tuple:
    """(lead parts, tail parts, H^T) of the split of g after its first a rows.

    Folded, the parts are the m1 distinct G' and the m2 distinct G'' parts of
    the columns, each column scaled to a leading 1, and H^T is the (m2, m1)
    float32 count of the columns with each pair.  Plain, they are G' and G''
    themselves and H^T is None: each column is its own part.  The split
    folds when its plain products take at least _FOLD_FLOOR multiply-adds
    and the folded ones fewer: q N_tail m2 m1 + N_lead N_tail q m1 against
    N_lead N_tail q n.
    """
    n = g.shape[1]
    nlead, ntail = (q**a - 1) // (q - 1), q ** (len(g) - a)
    if nlead * ntail * q * n >= _FOLD_FLOOR and q**a < 2**63:  # keys fit int64
        first = g[(g != 0).argmax(axis=0), np.arange(n)]  # 0 on a zero column
        scaled = ops.mul(g, ops.pow(first, q - 2))
        (lead, i1), (tail, i2) = _distinct_columns(scaled[:a], q), _distinct_columns(scaled[a:], q)
        m1, m2 = lead.shape[1], tail.shape[1]
        if m1 * (m2 + nlead) < nlead * n:
            h = np.bincount(i2 * m1 + i1, minlength=m2 * m1).astype(np.float32)
            return lead, tail, h.reshape(m2, m1)
    return g[:a], g[a:], None


def _class_weights(code: LinearCode, fold) -> Iterator:
    """fold(weights) of every block of the scalar classes, by float32 products.

    Split a message u = (u1, u2) over the first a = ceil(k/2) and the last
    k - a rows of G = (G'; G'').  The classes with u1 != 0 are the normalized
    u1 (first nonzero entry 1: g[p] + span of the rows p+1..a-1) with every
    u2; those with u1 = 0 are the classes of G'' alone, split again.  The
    weight of u1 G' - u2 G'' is the number of positions where the rows u1 G'
    and u2 G'' differ: the dot product of their one-hot rows, the first one
    complemented.  So one float32 product weighs a whole block of classes.
    u2 runs over a span, which is closed under negation, so these are the
    weights of u1 G' + u2 G'' too.

    A weight depends only on the multiset of the columns, and scaling a
    column keeps every weight.  So a split may fold its columns (see _fold):
    with c1 over the distinct G' parts, c2 over the distinct G'' parts and
    H[c1, c2] the number of columns with that pair, the weight is
    sum_x NotEq_x(u1 c1) H Eq_x(u2 c2)^T.  The tail's one-hot times H^T is
    one product per tail block, and the lead's one-hot spans m1 parts, not n
    columns.  Every term and partial sum is a count of at most n < 2^24, so
    the weights are exact in whatever order BLAS adds them.

    A block is at most sqrt(BLOCK // 16) classes on a side, and the parts
    are cut so that a one-hot operand holds at most BLOCK // 4 float32
    entries (the bytes of the bit engine's table): long codes still get
    square products.  When one chunk covers the lead parts, each tail
    block's operand is built once for every lead block, and the whole lead's
    one-hot once if it fits the same cap.  Cut parts take per-chunk lead
    operands, and a tail block's partial products are held until its last
    chunk.  The float32 weights go to fold as they are.
    """
    q = code.field.q
    ops = code.field.array_ops()
    side, cap = max(1, isqrt(BLOCK // 16)), BLOCK // 4

    def span(g):
        s = np.zeros((1, g.shape[1]), dtype=ops.dtype)
        for row in g[::-1]:
            s = ops.add(ops.multiples(row)[:, None], s[None]).reshape(-1, g.shape[1])
        return s

    g = code.generator.rows
    while len(g):
        a = -(-len(g) // 2)
        lead_part, tail_part, h = _fold(g, a, q, ops)
        m = lead_part.shape[1]
        rest = span(lead_part[1:])  # span(parts[p+1:a]) is its first q^(a-1-p) rows
        lead = np.concatenate([ops.add(lead_part[p], rest[: q ** (a - 1 - p)]) for p in range(a)])
        tail = span(tail_part)
        na, nb = min(len(lead), side), min(len(tail), side)
        room = max(1, cap // (max(na, nb) * q))  # parts in one chunk
        whole = _onehot(np.not_equal, lead, q) if m <= room and len(lead) * q * m <= cap else None

        def right(t, c):
            """The operand of the tail rows t for the lead parts c..c+room-1."""
            if h is None:
                return _onehot(np.equal, t[:, c : c + room], q)
            w = sum(
                _onehot(np.equal, t[:, e : e + room], q).reshape(len(t) * q, -1)
                @ h[e : e + room, c : c + room]
                for e in range(0, t.shape[1], room)
            )
            return w.reshape(len(t), -1)

        for i in range(0, len(tail), nb):
            held = {}  # partial products of this tail block, by lead block
            for c in range(0, m, room):
                r = right(tail[i : i + nb], c).T
                for j in range(0, len(lead), na):
                    if whole is None:
                        w = _onehot(np.not_equal, lead[j : j + na, c : c + room], q) @ r
                    else:
                        w = whole[j : j + na] @ r
                    if j in held:
                        w += held.pop(j)
                    if c + room < m:
                        held[j] = w
                    else:
                        yield fold(w.ravel())
                    del w  # free each product, and below each tail operand, before the next
                del r
        g = g[a:]


# Scalar classes over GF(q), q <= PRODUCT_MAX_Q, are weighed by _class_weights.
# A product costs 2q flops per class and position where the bit engine
# compares one byte, so the products stop paying at GF(8), whose XOR addition
# keeps the bit engine cheap (products 1.2-1.6x slower on random [73,5]_8,
# [300,6]_8 and [585,5]_8 codes, the last the shape of the quadric that the
# CLI benchmark analyzes).  float32 counts are exact below 2^24.
PRODUCT_MAX_Q = 7


def _scan(code: LinearCode, r: int, fold) -> Iterator:
    """fold(support sizes) of every block of the r-dim subcodes, on the engine that suits them.

    Each fold is made when the consumer asks for it, so min and sum hold one
    block at a time, whatever the number of blocks.
    """
    if r == 1 and code.field.q <= PRODUCT_MAX_Q and code.n < 2**24:
        return _class_weights(code, fold)
    return _enumerate(code, r, fold)


def _check_budget(code: LinearCode, r: int, budget: int, what: str) -> None:
    check_budget(code.n * gaussian_binomial(code.k, r, code.field.q), what, budget)


def _least_support(code: LinearCode, r: int, budget: int, what: str) -> int:
    _check_budget(code, r, budget, what)
    return int(min(_scan(code, r, np.min)))


def min_distance(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """Exact minimum distance: the least weight over the scalar classes.

    Ignores workers: the scan is sequential (the benchmark still passes it)."""
    return _least_support(code, 1, budget, "minimum distance enumeration")


def weight_distribution(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator: the scalar-class histogram times q - 1, plus 0.

    Its least nonzero weight, support()[0], is the minimum distance.
    Ignores workers: the scan is sequential (the benchmark still passes it)."""
    q, n = code.field.q, code.n
    _check_budget(code, 1, budget, "weight distribution enumeration")

    step = max(4096, n + 1)  # weights cast and counted at a time: a small intp copy

    def histogram(w):  # float32 weights from the products, ints from the bit engine
        return sum(
            np.bincount(w[s : s + step].astype(np.intp), minlength=n + 1)
            for s in range(0, len(w), step)
        )

    hist = (q - 1) * sum(_scan(code, 1, histogram))
    hist[0] += 1
    invariant(int(hist.sum()) == q**code.k, "weight enumerator normalization failed")
    return WeightEnumerator({w: int(c) for w, c in enumerate(hist) if c})


def ghw(
    code: LinearCode, r: int, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """r-th generalized Hamming weight: the least support of an r-dim subcode.

    Ignores workers: the scan is sequential (the benchmark still passes it)."""
    if not 1 <= r <= code.k:
        raise InvalidParams(f"need 1 <= r <= k = {code.k}, got {r}")
    return _least_support(code, r, budget, "subspace enumeration")


def eckardt_detect(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff a degree-6 blow-up code has the depressed minimum distance.

    The del Pezzo prediction's d_options are q^2 + 4q (an Eckardt point:
    three concurrent lines in a plane section) and q^2 + 4q + 1 (the generic
    case).  Anything else signals a construction bug.
    """
    desc = code.provenance.get("descriptor", {})
    if desc.get("family") != "del_pezzo" or desc.get("l") != 6:
        raise InputError("Eckardt detection applies to l = 6 blow-up codes only")
    eckardt, generic = predict(VarietyDescriptor.from_dict(desc), 1, code.field.q).d_options
    d = min_distance(code, budget)
    if d in (eckardt, generic):
        return d == eckardt
    raise UnexpectedDistance(
        f"d = {d} is outside {{q^2+4q, q^2+4q+1}} = {{{eckardt}, {generic}}}"
    )
