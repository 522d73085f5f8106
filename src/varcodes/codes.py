"""Evaluation codes and exact parameter measurement.

Three exact paths measure d, the weight distribution and the generalized
Hamming weights d_r.  _plan states where each path applies and its estimate,
runs the cheapest one and checks the budget against it.

The bit engine (_enumerate) walks the RREF pivot patterns of r x k message
matrices, meeting each r-dimensional subcode once, and counts supports packed
to machine words with np.bitwise_count.  The r = 1 subcodes are the scalar
classes of nonzero codewords, so d and the weight distribution are
reductions over r = 1, and d_r is the minimum over rank r.

The float32 products (_class_weights) weigh a block of scalar classes by one
BLAS product, from q - 1 indicator planes per position and one weight
column: a weight is the number of positions where the two halves of a
message disagree.  Their cost grows with q (2(q - 1) flops per class and
position).  A split of the generator whose column halves repeat (long codes
with few rows, such as the Grassmann codes) is folded onto the distinct
halves, with a matrix counting the columns of each pair, when that takes
fewer flops.  Both scans count every class once, so one estimate describes
either; on folded splits it is an upper bound.

The column-span search (_column_spans) finds d_r = n minus the most columns
in a (k - r)-dim subspace, growing spans of the distinct column points one
point at a time, so its cost grows with k - r where the scans' grows with r.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from math import comb, isqrt

import numpy as np

from .bounds import gaussian_binomial
from .errors import (
    DEFAULT_BUDGET,
    DimensionMismatch,
    EmptyPointSet,
    InputError,
    InvalidParams,
    UnexpectedDistance,
    check_budget,
    invariant,
)
from .families import build_point_set, check_descriptor, predict, require_fields
from .gf import GF
from .linalg import Matrix, pivot_patterns, rank, rref
from .projgeom import Form, enumerate_monomials, evaluate_forms
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
        # Range-check the JSON ints as one int64 array before they become field elements.
        outside = InvalidParams(f"artifact generator has an entry outside GF({fld.q})")
        try:
            entries = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)
        except OverflowError:  # past int64, such as 2**70
            raise outside from None
        except ValueError:  # rows of different lengths
            raise DimensionMismatch("ragged rows") from None
        if entries.size and not (entries.min() >= 0 and entries.max() < fld.q):
            raise outside
        gen = Matrix(fld, entries.astype(fld.array_ops().dtype))
        if (gen.nrows, gen.ncols, len(d["point_labels"])) != (d["k"], d["n"], d["n"]):
            raise InvalidParams(
                f"artifact says k={d['k']}, n={d['n']}, but has a {gen.nrows} x "
                f"{gen.ncols} generator and {len(d['point_labels'])} point labels"
            )
        if not 0 < rank(gen) == gen.nrows:
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
    must be given.  The basis labels are the forms' own text unless given.
    The generator is the row basis of the RREF of the raw evaluation matrix;
    the kernel dimension (forms vanishing on all of S) is recorded.
    """
    if len(points) == 0:
        raise EmptyPointSet("no evaluation points")
    fld = points.field
    if basis is None:
        if h is None:
            raise InvalidParams("need a basis or a degree h")
        basis = [Form.monomial(fld, e) for e in enumerate_monomials(points.ambient, h)]
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
        labels = [str(f) for f in cubics]
        return build_evaluation_code(points, h=1, basis_labels=labels, provenance=prov)
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


def _lead_operand(a, q: int, weight=None) -> np.ndarray:
    """Row i: [a[i, j] = 0] - [a[i, j] = x] for x = 1..q-1, then j; then weight[i], if given.

    float32, with entries -1, 0 and 1 in the planes.
    """
    cols = a.shape[1]
    out = np.empty((len(a), (q - 1) * cols + (weight is not None)), dtype=np.float32)
    zero = (a == 0).view(np.int8)
    for x in range(1, q):
        out[:, (x - 1) * cols : x * cols] = zero - (a == x).view(np.int8)
    if weight is not None:
        out[:, -1] = weight
    return out


def _tail_operand(b, q: int, ones: bool = False) -> np.ndarray:
    """Row (x - 1) cols + j: [b[i, j] = x] for every i, x = 1..q-1; then ones, if asked.

    float32, built in the (K, rows) C order that the product reads.
    """
    cols = b.shape[1]
    out = np.empty(((q - 1) * cols + ones, len(b)), dtype=np.float32)
    bt = np.ascontiguousarray(b.T)
    for x in range(1, q):
        out[(x - 1) * cols : x * cols] = bt == x
    if ones:
        out[-1] = 1
    return out


def _scaled_columns(g: np.ndarray, q: int, ops) -> np.ndarray:
    """g with each nonzero column scaled to a leading 1 (zero columns stay 0)."""
    first = g[(g != 0).argmax(axis=0), np.arange(g.shape[1])]  # 0 on a zero column
    return ops.mul(g, ops.pow(first, q - 2))


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
    folds when N_lead N_tail q n reaches _FOLD_FLOOR and the folded products
    take fewer multiply-adds than the plain ones, (q - 1) N_tail m2 m1 +
    N_lead N_tail (q - 1) m1 against N_lead N_tail (q - 1) n: when
    m1 (m2 + N_lead) < N_lead n.  G' is grouped first, and G'' only when
    m1 (1 + N_lead) < N_lead n leaves room for some m2 >= 1.
    """
    n = g.shape[1]
    nlead, ntail = (q**a - 1) // (q - 1), q ** (len(g) - a)
    if nlead * ntail * q * n >= _FOLD_FLOOR and q**a < 2**63:  # keys fit int64
        scaled = _scaled_columns(g, q, ops)
        lead, i1 = _distinct_columns(scaled[:a], q)
        m1 = lead.shape[1]
        if m1 * (1 + nlead) < nlead * n:
            tail, i2 = _distinct_columns(scaled[a:], q)
            m2 = tail.shape[1]
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
    weight of u1 G' - u2 G'' is the number of positions where the rows
    A = u1 G' and B = u2 G'' differ.  Since sum_x [B_j = x] = 1,

        [A_j != B_j] = [A_j != 0] + sum_(x != 0) [B_j = x] ([A_j = 0] - [A_j = x]),

    so one float32 product weighs a whole block of classes: the lead operand
    holds the q - 1 planes [A = 0] - [A = x] (entries -1, 0, 1) and one
    column with the weight of A, the tail operand the q - 1 planes [B = x]
    and one row of ones.  u2 runs over a span, which is closed under
    negation, so these are the weights of u1 G' + u2 G'' too.

    A weight depends only on the multiset of the columns, and scaling a
    column keeps every weight.  So a split may fold its columns (see _fold):
    with c1 over the distinct G' parts, c2 over the distinct G'' parts and
    H[c1, c2] the number of columns with that pair, the planes run over the
    m1 lead parts, the tail's planes are multiplied by H (one batched
    product per chunk), and the weight of A counts each part h.sum(axis=0)
    times.  Every term is at most n in absolute value and the terms of one
    weight add up to at most 2n < 2^24 in absolute value, so the weights
    are exact in whatever order BLAS adds them.

    A block is at most sqrt(BLOCK // 16) classes on a side, and the parts
    are cut so that an operand holds at most BLOCK // 4 float32 entries (the
    bytes of the bit engine's table), the weight column and the row of ones
    included: long codes still get square products.  The weight column and
    the row of ones go into the first chunk of parts only.  When one chunk
    covers the lead parts, each tail block's operand is built once for every
    lead block, and the whole lead operand once if it fits the same cap.
    Cut parts take per-chunk lead operands, and a tail block's partial
    products are held until its last chunk.  The float32 weights go to fold
    as they are.
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
        nonzero = lead != 0
        weight = nonzero.sum(axis=1) if h is None else nonzero @ h.sum(axis=0)
        na, nb = min(len(lead), side), min(len(tail), side)
        room = max(1, (cap // max(na, nb) - 1) // (q - 1))  # parts in one chunk
        fits = m <= room and len(lead) * ((q - 1) * m + 1) <= cap
        whole = _lead_operand(lead, q, weight) if fits else None

        def right(t, c):
            """The operand of the tail rows t for the lead parts c..c+room-1."""
            if h is None:
                return _tail_operand(t[:, c : c + room], q, c == 0)
            cols = min(room, m - c)
            out = np.empty(((q - 1) * cols + (c == 0), len(t)), dtype=np.float32)
            planes = out[: (q - 1) * cols].reshape(q - 1, cols, len(t))
            for e in range(0, t.shape[1], room):
                eq = _tail_operand(t[:, e : e + room], q).reshape(q - 1, -1, len(t))
                if e:
                    planes += h[e : e + room, c : c + room].T @ eq
                else:
                    np.matmul(h[:room, c : c + room].T, eq, out=planes)
            if c == 0:
                out[-1] = 1
            return out

        for i in range(0, len(tail), nb):
            held = {}  # partial products of this tail block, by lead block
            for c in range(0, m, room):
                r = right(tail[i : i + nb], c)
                for j in range(0, len(lead), na):
                    if whole is None:
                        rows = lead[j : j + na, c : c + room]
                        w = _lead_operand(rows, q, weight[j : j + na] if c == 0 else None) @ r
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


# _plan runs the products up to GF(PRODUCT_MAX_Q).  A product costs 2(q - 1)
# flops per class and position where the bit engine compares one byte, and
# GF(8)'s XOR addition keeps the bit engine cheap, but the crossover is not at
# GF(8) for every shape.  Medians of 200 alternating scans on one thread of a
# 2-core Xeon, products against the bit engine: 1.55x the bit engine's time on
# a random [300,6]_8 code, but 0.96x on a random [73,5]_8, 0.81x on a random
# [585,5]_8, 0.81x on the quadric [585,5]_8 that build makes (the one the CLI
# benchmark analyzes) and 0.61x on the Hermitian [280,4]_9.
PRODUCT_MAX_Q = 7


def _column_points(code: LinearCode) -> tuple[np.ndarray, np.ndarray, int]:
    """(points, weight, zeros): the distinct nonzero columns, each scaled to a
    leading 1, as a (k, m) array; the number of columns on each; and the
    number of zero columns."""
    q, ops = code.field.q, code.field.array_ops()
    points, index = _distinct_columns(_scaled_columns(code.generator.rows, q, ops), q)
    weight = np.bincount(index)
    zeros = int(weight[0]) if not points[:, 0].any() else 0  # the zero key sorts first
    return points[:, zeros > 0 :], weight[zeros > 0 :], zeros


def _column_spans(code: LinearCode, r: int, points, weight, zeros: int) -> int:
    """d_r = n - the most columns in one (k - r)-dimensional subspace W.

    A code's columns g_j are a projective system, and an r-dim subcode's
    support is the complement of the columns in the (k - r)-dim W that its
    messages annihilate, so d_r = n - max_W #{j : g_j in W} (Tsfasman and
    Vladut, IEEE-IT 1995).  The max is reached on a W spanned by columns,
    since adding a column to a span never loses one.  Zero columns lie in
    every W, and proportional columns on the same point share one weight.

    The walk grows spans of the m distinct points, one point per level.  A
    node is a t-dim span V, held as the (k - t, m) syndromes of the points
    modulo V, each scaled to a leading 1 and read as one base-q key (0 on
    the points of V).  The points with one key span one (t + 1)-dim space
    with V, so a node's children are its nonzero keys, and each child's
    syndromes are the node's with its point's pivot row eliminated and
    dropped.  A span is reached once: its new point is the least point of
    its key, past the node's own last point.  The last level is not
    expanded: it takes the key with the most columns, node by node.  The
    nodes of a level go through numpy together, at most BLOCK field
    elements at a time.
    """
    q, k, n = code.field.q, code.k, code.n
    ops = code.field.array_ops()
    m, s = points.shape[1], k - r
    if s == 0:
        return n - zeros
    inverse = ops.pow(np.arange(q, dtype=ops.dtype), q - 2)
    repeated = weight.max() > 1  # else every count is a count of points

    def keys(S):
        """Scale each syndrome of the (N, rows, m) stack S to a leading 1; its keys."""
        if q > 2:
            lead = S[:, -1].copy()
            for row in range(S.shape[1] - 2, -1, -1):
                np.copyto(lead, S[:, row], where=S[:, row] != 0)
            S = ops.mul(S, inverse[lead][:, None])
        key = np.zeros(S.shape[::2], dtype=np.int64)
        for row in range(S.shape[1]):
            key *= q
            key += S[:, row]
        return S, key

    def most(key, size):
        """The most columns in a node's V and one of its keys, over a (N, m) key array."""
        flat = (np.arange(len(key))[:, None] * size + key).ravel()
        w = np.broadcast_to(weight, key.shape).ravel() if repeated else None
        if size <= 8 * m:  # count the keys node by node, BLOCK // size nodes at a time
            best, piece = 0, max(1, BLOCK // size) * m
            for i in range(0, len(flat), piece):
                part = flat[i : i + piece] - i // m * size
                ws = None if w is None else w[i : i + piece]
                counts = np.bincount(part, ws, len(part) // m * size).reshape(-1, size)
                best = max(best, int((counts[:, 0] + counts[:, 1:].max(axis=1)).max()))
            return best
        order = flat.argsort()
        flat = flat[order]
        starts = np.flatnonzero(np.diff(flat, prepend=-1))
        if repeated:
            counts = np.add.reduceat(w[order], starts)
        else:  # one point a column
            counts = np.diff(starts, append=len(flat))
        node, own = np.divmod(flat[starts], size)
        inside = np.bincount(node[own == 0], counts[own == 0], minlength=len(key))
        return int((counts + inside[node])[own != 0].max())

    best = 0

    def level(S, last, t):
        nonlocal best
        S, key = keys(S)
        size = q ** S.shape[1]
        if t == s - 1:
            best = max(best, most(key, size))
            return
        flat = (np.arange(len(key))[:, None] * size + key).ravel()
        order = flat.argsort(kind="stable")  # a key's least point first
        starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
        node, j = np.divmod(order[starts], m)
        keep = (key[node, j] != 0) & (j > last[node])
        node, j = node[keep], j[keep]
        del key, flat, order, starts
        rows = S.shape[1] - 1
        step = max(1, BLOCK // (rows * m))
        for c in range(0, len(node), step):
            nd, jj = node[c : c + step], j[c : c + step]
            v = S[nd, :, jj]  # each child's point, 1 at its pivot row
            pivot = (v != 0).argmax(axis=1)
            kept = np.arange(rows) + (np.arange(rows) >= pivot[:, None])
            coef = S[nd, pivot]
            minus_v = ops.neg(np.take_along_axis(v, kept, axis=1))
            C = ops.add(S[nd[:, None], kept], ops.mul(coef[:, None, :], minus_v[:, :, None]))
            level(C, jj, t + 1)

    level(points[None], np.array([-1]), 0)
    return n - zeros - best


# One column-span step (a syndrome entry: field mul, add and key) costs more
# than one bit-engine step (a subcode and position), so _plan weighs
# the column-span estimate by SPAN_WEIGHT to count both in bit-engine steps.
# Medians of repeated calls on one thread of a 2-core Xeon, both paths called
# directly: a span step took 3.5-15 ns on searches past 1 ms and a bit-engine
# step 0.08-0.9 ns.  The closest calls either way: d_3 of the flag [52,8]_3,
# whose raw span estimate is 1/20.9 of the bit engine's, took 501 ms on the
# spans and 126 ms on the bit engine; d_5 of the Grassmann [130,6]_3, at
# 1/60.7, took 0.07 and 0.47 ms.  SPAN_WEIGHT sits between the two.
SPAN_WEIGHT = 32


def _plan(code: LinearCode, r: int, budget: int):
    """The runner of the cheapest exact path over the r-dim subcodes, within budget.

        path                admits                               estimate
        float32 products    r = 1, q <= PRODUCT_MAX_Q, n < 2^23  n [k choose r]_q
        bit engine          always                               n [k choose r]_q
        column-span search  r >= 2, q^k < 2^40                   SPAN_WEIGHT S

    The products' partial sums reach 2n, exact in float32 below 2^24.  The
    search keys whole columns as base-q integers; for m distinct column
    points, S sums min(C(m, i), [k choose i]_q) nodes at each level i < k - r
    times their (k - i) m syndrome entries.  The least estimate runs, the
    first listed on a tie, and BudgetExceeded names its path.  The runner
    returns fold(support sizes) of each block as the consumer asks for it, so
    min and sum hold one block at a time; the search makes one block, [d_r].
    """
    q, k, n = code.field.q, code.k, code.n
    scan = n * gaussian_binomial(k, r, q)
    paths = []
    if r == 1 and q <= PRODUCT_MAX_Q and n < 2**23:
        paths.append(("float32 products", scan, partial(_class_weights, code)))
    paths.append(("bit engine", scan, partial(_enumerate, code, r)))
    if r > 1 and q**k < 2**40:
        points, weight, zeros = _column_points(code)
        m = points.shape[1]
        spans = SPAN_WEIGHT * sum(
            min(comb(m, i), gaussian_binomial(k, i, q)) * (k - i) * m for i in range(k - r)
        )
        paths.append(("column-span search", spans,
                      lambda fold: [fold([_column_spans(code, r, points, weight, zeros)])]))
    name, estimate, run = min(paths, key=lambda path: path[1])
    check_budget(estimate, f"the {name} at r = {r}", budget)
    return run


def _d(code: LinearCode, r: int, budget: int) -> int:
    """d_r, the least support of an r-dim subcode, on the path that _plan picks."""
    return int(min(_plan(code, r, budget)(np.min)))


def min_distance(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """Exact minimum distance: the least weight over the scalar classes.

    Ignores workers: the scan is sequential (the benchmark still passes it)."""
    return _d(code, 1, budget)


def _weight_histogram(w, n: int) -> np.ndarray:
    """np.bincount(w, minlength=n + 1) of a block of whole weights 0 <= w <= n.

    The weights are counted in pairs: one bincount of w[:h] (n + 1) + w[h:2h]
    in uint16, whose row sums and column sums are the histograms of the two
    halves.  Past n = 255 the pairs overflow uint16, and the weights are
    counted in small chunks instead.  float32 weights from the products and
    ints from the bit engine alike.
    """
    if (n + 1) ** 2 > 2**16:
        step = max(4096, n + 1)  # weights cast and counted at a time: a small intp copy
        return sum(
            np.bincount(w[s : s + step].astype(np.intp), minlength=n + 1)
            for s in range(0, len(w), step)
        )
    h = len(w) // 2
    pairs = w[:h].astype(np.uint16)
    pairs *= n + 1
    pairs += w[h : 2 * h].astype(np.uint16)
    counts = np.bincount(pairs, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    hist = counts.sum(axis=0) + counts.sum(axis=1)
    if len(w) % 2:
        hist[int(w[-1])] += 1
    return hist


def weight_distribution(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator: the scalar-class histogram times q - 1, plus 0.

    Its least nonzero weight, support()[0], is the minimum distance.
    Ignores workers: the scan is sequential (the benchmark still passes it)."""
    q, n = code.field.q, code.n
    hist = (q - 1) * sum(_plan(code, 1, budget)(lambda w: _weight_histogram(w, n)))
    hist[0] += 1
    invariant(int(hist.sum()) == q**code.k, "weight enumerator normalization failed")
    return WeightEnumerator({w: int(c) for w, c in enumerate(hist) if c})


def ghw(
    code: LinearCode, r: int, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """r-th generalized Hamming weight: the least support of an r-dim subcode.

    On the path that _plan estimates cheapest; every path is exact and
    sequential.  Ignores workers (the benchmark still passes it)."""
    if not 1 <= r <= code.k:
        raise InvalidParams(f"need 1 <= r <= k = {code.k}, got {r}")
    return _d(code, r, budget)


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
