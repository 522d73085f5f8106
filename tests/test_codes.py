"""Code construction and exact parameter measurement."""

import gc
import random
import threading
import tracemalloc
from functools import cache, partial, reduce
from itertools import combinations, product
from math import comb, isqrt, prod
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varcodes import codes
from varcodes.bounds import gaussian_binomial
from varcodes.codes import (
    LinearCode,
    build_evaluation_code,
    code_from_descriptor,
    eckardt_detect,
    ghw,
    min_distance,
)
from varcodes.errors import BudgetExceeded, InputError, InternalError
from varcodes.families import predict
from varcodes.gf import GF
from varcodes.linalg import Matrix, rank, rank_and_kernel, rref
from varcodes.varieties import PointSet, VarietyDescriptor

from moments import assert_pless_moments, weight_distribution

F2, F3, F4, F5, F7, F8, F9 = (
    GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2),
)


def _code(family, params, h, fld):
    return code_from_descriptor(VarietyDescriptor(family, params), h, fld)


def test_projective_rm_h1_gf2():
    code = _code("projective_space", {"m": 2}, 1, F2)
    assert (code.n, code.k) == (7, 3)
    assert code.kernel_dim == 0
    assert min_distance(code) == 4


def test_pless_moments_catch_a_corrupted_distribution():
    code = _code("projective_space", {"m": 2}, 1, F2)
    wd = codes.weight_distribution(code)
    assert_pless_moments(code, wd)
    wd.counts[4] -= 1  # one word of weight 4 moved to weight 3: q^k words still
    wd.counts[3] = 1
    with pytest.raises(AssertionError, match="Pless moments"):
        assert_pless_moments(code, wd)


def test_flag_code_not_injective():
    code = _code("flag", {"m": 3}, 1, F2)
    assert code.k == 8
    assert code.kernel_dim == 1
    assert len(code.basis_labels) == 9


def test_hermitian_surface_code():
    code = _code("hermitian", {"m": 3, "r": 2}, 1, F4)
    assert (code.n, code.k) == (45, 4)
    assert min_distance(code) == 32


def test_generator_is_rref_and_full_rank():
    code = _code("quadric", {"m": 3, "w": 2}, 1, F3)
    assert rank(code.generator) == code.k
    from varcodes.linalg import rref

    assert isinstance(code.generator.rows, np.ndarray)
    assert code.generator.rows.dtype == F3.array_ops().dtype
    reduced, _ = rref(code.generator)
    assert np.array_equal(reduced.rows, code.generator.rows)


def test_dimension_identity_on_every_build():
    # k = #basis - kernel_dim on a spread of families
    cases = [
        _code("projective_space", {"m": 2}, 2, F3),
        _code("flag", {"m": 3}, 1, F2),
        _code("grassmann", {"l": 2, "m": 4}, 1, F2),
        _code("hermitian", {"m": 2, "r": 2}, 1, F4),
    ]
    for code in cases:
        assert code.k == len(code.basis_labels) - code.kernel_dim


def test_degree_h_basis_keeps_the_labels_it_is_given():
    points = PointSet(F2, 1, np.array([[1, 0], [0, 1], [1, 1]], np.uint8), ["a", "b", "c"])
    assert build_evaluation_code(points, h=1).basis_labels == ["x0", "x1"]
    assert build_evaluation_code(points, h=1, basis_labels=["u", "v"]).basis_labels == ["u", "v"]


def test_empty_point_set_rejected():
    with pytest.raises(InputError, match="no evaluation points"):
        build_evaluation_code(PointSet(F2, 1, [], []), h=1)


def test_min_distance_examples():
    assert min_distance(_code("grassmann", {"l": 2, "m": 4}, 1, F2)) == 16


def test_weight_distribution_hermitian_curve():
    code = _code("hermitian", {"m": 2, "r": 2}, 1, F4)
    wd = weight_distribution(code)
    assert wd.to_dict() == {"0": 1, "6": 36, "8": 27}
    assert wd.total() == 4**3


def test_weight_distribution_k1_repetition():
    code = _code("toric", {"s": 1, "lattice_points": [[0]]}, 1, F4)
    assert code.k == 1
    wd = weight_distribution(code)
    assert wd.counts == {0: 1, 3: 3}


def test_weight_distribution_normalization_elliptic():
    code = _code("quadric", {"m": 3, "w": 0}, 1, F2)
    assert (code.n, code.k) == (5, 4)
    assert weight_distribution(code).total() == 16


def test_min_distance_equals_weight_support_min():
    for code in (
        _code("quadric", {"m": 2, "w": 1}, 1, F3),
        _code("p1xp1", {"alpha": 1, "beta": 1}, 1, F3),
        _code("projective_space", {"m": 2}, 2, F3),
    ):
        wd = weight_distribution(code)
        assert min_distance(code) == min(w for w, c in wd.counts.items() if c and w > 0)


def test_ghw_simplex():
    code = _code("projective_space", {"m": 2}, 1, F2)
    assert [ghw(code, r) for r in (1, 2, 3)] == [4, 6, 7]


def test_ghw_against_exhaustive_subcode_oracle():
    # Independent oracle for d_2 of the [5,3] code over GF(2): minimum
    # support over all 2-dimensional subcodes, enumerated from codeword
    # pairs rather than message-space pivot patterns.
    gen = Matrix(F2, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
    code = LinearCode(F2, gen, [""] * 5, [""] * 3, {})
    words = []
    for msg in range(1, 8):
        m = [(msg >> i) & 1 for i in range(3)]
        words.append(tuple(
            sum(m[j] * gen.rows[j][c] for j in range(3)) % 2 for c in range(5)
        ))
    best = None
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            ab = tuple((x + y) % 2 for x, y in zip(a, b))
            if ab in (a, b) or all(x == 0 for x in ab):
                continue
            support = sum(
                1 for c in range(5) if a[c] or b[c]
            )
            best = support if best is None else min(best, support)
    assert ghw(code, 2) == best


def test_ghw_top_rank_is_n_without_zero_columns():
    code = _code("projective_space", {"m": 2}, 1, F2)
    assert code.generator.rows.any(axis=0).all()  # no zero column
    assert ghw(code, code.k) == code.n


def test_ghw_equals_min_distance_at_rank_one():
    code = _code("quadric", {"m": 3, "w": 2}, 1, F3)
    assert ghw(code, 1) == min_distance(code)


def test_ghw_rank_range_validated():
    code = _code("projective_space", {"m": 2}, 1, F2)
    with pytest.raises(InputError, match="need 1 <= r <= k = 3, got 0"):
        ghw(code, 0)
    with pytest.raises(InputError, match="need 1 <= r <= k = 3, got 4"):
        ghw(code, 4)


def test_budget_exceeded_reports_estimate():
    code = _code("projective_space", {"m": 2}, 1, F2)
    est = code.n * gaussian_binomial(code.k, 1, 2)
    with pytest.raises(BudgetExceeded) as err:
        min_distance(code, budget=est - 1)
    assert err.value.estimate == est
    with pytest.raises(BudgetExceeded):
        weight_distribution(code, budget=10)
    with pytest.raises(BudgetExceeded):
        ghw(code, 2, budget=10)


def test_column_rescale_leaves_parameters_invariant():
    base = _code("quadric", {"m": 2, "w": 1}, 1, F4)
    rng = random.Random(7)
    scaled_rows = base.generator.rows.tolist()
    for j in range(base.n):
        c = rng.randrange(1, F4.q)
        for row in scaled_rows:
            row[j] = F4.mul(c, row[j])
    scaled = LinearCode(F4, Matrix(F4, scaled_rows), base.point_labels, base.basis_labels, {})
    assert min_distance(scaled) == min_distance(base)
    assert weight_distribution(scaled).counts == weight_distribution(base).counts


def test_workers_match_sequential(monkeypatch):
    # workers is ignored: the engine is one sequential scan and starts no thread.
    def no_thread(self):
        raise AssertionError("the enumeration started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    code = _code("hermitian", {"m": 3, "r": 2}, 1, F4)
    code2 = _code("hermitian", {"m": 3, "r": 2}, 1, F4)
    assert min_distance(code2, workers=3) == min_distance(code)
    assert weight_distribution(code2, workers=3).counts == weight_distribution(code).counts


def test_extension_field_engine_matches_naive_enumeration():
    # Cross-check the enumeration engine against plain field arithmetic.
    code = _code("hermitian", {"m": 1, "r": 2}, 1, F4)
    from itertools import product as iproduct

    weights = {}
    for msg in iproduct(range(4), repeat=code.k):
        if all(x == 0 for x in msg):
            continue
        word = [0] * code.n
        for j, c in enumerate(msg):
            for col in range(code.n):
                word[col] = F4.add(word[col], F4.mul(c, code.generator.rows[j, col].item()))
        w = sum(1 for x in word if x)
        weights[w] = weights.get(w, 0) + 1
    wd = weight_distribution(code)
    assert {w: c for w, c in wd.counts.items() if w} == weights


def test_eckardt_detect_on_cubic_surface_gf7():
    code = _code("del_pezzo", {"l": 6}, 1, F7)
    d = min_distance(code, budget=2**33)
    assert d in (77, 78)
    assert eckardt_detect(code, budget=2**33) == (d == 77)


def test_eckardt_detect_rejects_other_codes():
    code = _code("projective_space", {"m": 2}, 1, F2)
    with pytest.raises(InputError):
        eckardt_detect(code)


def test_eckardt_detect_branches_synthetic():
    prov = {"descriptor": {"family": "del_pezzo", "l": 6}, "h": 1, "q": 5}
    gen = Matrix(F5, [[1] * 4])
    fake = LinearCode(F5, gen, [""] * 4, [""], prov)
    with mock.patch.object(codes, "min_distance", return_value=45):
        assert eckardt_detect(fake) is True
    with mock.patch.object(codes, "min_distance", return_value=46):
        assert eckardt_detect(fake) is False
    with mock.patch.object(codes, "min_distance", return_value=40):
        with pytest.raises(InternalError, match="d = 40 is outside"):
            eckardt_detect(fake)


def test_artifact_round_trip(tmp_path):
    code = _code("hermitian", {"m": 2, "r": 2}, 1, F4)
    data = code.to_dict()
    restored = LinearCode.from_dict(data)
    assert np.array_equal(restored.generator.rows, code.generator.rows)
    assert restored.provenance == code.provenance
    assert min_distance(restored) == min_distance(code)


def test_artifact_rejects_bad_version():
    code = _code("projective_space", {"m": 2}, 1, F2)
    data = code.to_dict()
    data["format_version"] = 99
    with pytest.raises(InputError, match="unsupported artifact format version 99"):
        LinearCode.from_dict(data)


def test_csv_export_shape():
    code = _code("projective_space", {"m": 2}, 1, F2)
    lines = code.to_csv().strip().split("\n")
    assert len(lines) == code.k
    assert all(len(line.split(",")) == code.n for line in lines)


def test_p1p1_bidegree_matches_hyperbolic_quadric():
    # Segre embedding: the (1,1) code on P1 x P1 and the hyperbolic quadric
    # code in P^3 have the same parameters.
    pp = _code("p1xp1", {"alpha": 1, "beta": 1}, 1, F3)
    quad = _code("quadric", {"m": 3, "w": 2}, 1, F3)
    assert (pp.n, pp.k) == (quad.n, quad.k) == (16, 4)
    assert min_distance(pp) == min_distance(quad) == 9
    assert weight_distribution(pp).counts == weight_distribution(quad).counts


def test_toric_brute_force_oracle():
    # Exhaustive zero count of a + b x + c y on the four torus points of
    # GF(3)^2, done with plain modular arithmetic.
    torus = [(x, y) for x in (1, 2) for y in (1, 2)]
    best = None
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (a, b, c) == (0, 0, 0):
                    continue
                zeros = sum(1 for x, y in torus if (a + b * x + c * y) % 3 == 0)
                weight = len(torus) - zeros
                best = weight if best is None else min(best, weight)
    code = _code("toric", {"s": 2, "lattice_points": [[0, 0], [1, 0], [0, 1]]}, 1, F3)
    assert (code.n, code.k) == (4, 3)
    assert min_distance(code) == best == 2


def test_toric_full_square_is_trivial_code():
    code = _code(
        "toric", {"s": 2, "lattice_points": [[0, 0], [1, 0], [0, 1], [1, 1]]}, 1, F3
    )
    assert (code.n, code.k) == (4, 4)
    assert min_distance(code) == 1


def test_del_pezzo_h_must_be_one():
    with pytest.raises(InputError, match="del_pezzo fixes its own basis"):
        _code("del_pezzo", {"l": 1}, 2, F5)


def _naive_codewords(code):
    """Every codeword, with scalar field arithmetic only."""
    F = code.field
    words = [[0] * code.n]
    for row in code.generator.rows.tolist():
        words = [
            [F.add(x, F.mul(c, g)) for x, g in zip(word, row)]
            for word in words
            for c in F.elements()
        ]
    return words


def _naive_weight_histogram(code):
    """Reference enumeration with scalar field arithmetic only."""
    hist = {}
    for word in _naive_codewords(code):
        w = sum(1 for x in word if x)
        hist[w] = hist.get(w, 0) + 1
    return hist


def _naive_ghw(code):
    """[d_1, ..., d_k] from the codewords alone (small n).

    The codewords supported inside a column set T form a subcode, so
    d_r is the least |T| that holds at least q^r codewords (Wei, 1991).
    """
    n, q = code.n, code.field.q
    inside = [0] * (1 << n)
    for word in _naive_codewords(code):
        inside[sum(1 << c for c, x in enumerate(word) if x)] += 1
    for c in range(n):  # count the codewords supported in each subset
        for T in range(1 << n):
            if T >> c & 1:
                inside[T] += inside[T ^ (1 << c)]
    return [
        min(bin(T).count("1") for T in range(1 << n) if inside[T] >= q**r)
        for r in range(1, code.k + 1)
    ]


def _assert_engine_matches_reference(code):
    hist = _naive_weight_histogram(code)
    assert weight_distribution(code).counts == hist
    assert min_distance(code) == min(w for w in hist if w)
    assert [ghw(code, r) for r in range(1, code.k + 1)] == _naive_ghw(code)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_engine_matches_naive_reference(data):
    # Random full-rank generators; the block size moves the split between
    # the table and the walk, down to one free entry per table.
    # q <= 7 weighs scalar classes by float32 products, larger q by the bit
    # engine; both sides of that cutoff are drawn.
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11]))
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(k, 8))
    entry = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    F = GF.from_order(q)
    reduced, pivots = rref(Matrix(F, rows))
    assume(len(pivots) == k)
    code = LinearCode(F, reduced, [""] * n, [""] * k, {})
    with mock.patch.object(codes, "BLOCK", data.draw(st.sampled_from([1, 64, codes.BLOCK]))):
        _assert_engine_matches_reference(code)


def test_engine_matches_naive_reference_uint16_odd_p():
    # q = 257 > 256 takes 16-bit element indices with mod-p addition.
    F = GF(257)
    gen = Matrix(F, [[1, 0, 5, 256], [0, 1, 200, 3]])
    _assert_engine_matches_reference(LinearCode(F, gen, [""] * 4, [""] * 2, {}))


def _span_check_ghw(code, r):
    """d_r from every r scalar classes whose messages span an r-dim space.

    The support of a subcode is the union of the supports of a basis, and r
    codewords are a basis exactly when their messages have q^r distinct
    combinations.
    """
    F, n, k = code.field, code.n, code.k
    classes = []  # (message, support), first nonzero message entry 1
    for msg in product(F.elements(), repeat=k):
        if next((x for x in msg if x), 0) != 1:
            continue
        word = [0] * n
        for c, row in zip(msg, code.generator.rows.tolist()):
            word = [F.add(x, F.mul(c, g)) for x, g in zip(word, row)]
        classes.append((msg, {i for i, x in enumerate(word) if x}))
    best = n
    for chosen in combinations(classes, r):
        combos = {
            tuple(reduce(F.add, (F.mul(c, m[i]) for c, (m, _) in zip(cs, chosen))) for i in range(k))
            for cs in product(F.elements(), repeat=r)
        }
        if len(combos) == F.q**r:
            best = min(best, len(set().union(*(sup for _, sup in chosen))))
    return best


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
def test_engine_matches_naive_reference_across_word_sizes(n, q):
    # Packed supports are one uint8/16/32 word up to n = 32 and whole uint64
    # words beyond, so n sits on both sides of every word boundary.  BLOCK = 1
    # puts one free entry in each table and walks the rest.
    F = GF.from_order(q)
    k = 3 if q <= 3 else 2
    rng = random.Random(100 * n + q)
    while True:
        reduced, pivots = rref(Matrix(F, [[rng.randrange(q) for _ in range(n)] for _ in range(k)]))
        if len(pivots) == k:
            break
    reference = LinearCode(F, reduced, [""] * n, [""] * k, {})
    hist = _naive_weight_histogram(reference)
    hierarchy = [_span_check_ghw(reference, r) for r in range(1, k + 1)]
    for block in (1, codes.BLOCK):
        code = LinearCode(F, reduced, [""] * n, [""] * k, {})
        with mock.patch.object(codes, "BLOCK", block):
            assert weight_distribution(code).counts == hist
            assert min_distance(code) == min(w for w in hist if w)
            assert [ghw(code, r) for r in range(1, k + 1)] == hierarchy


def test_enumeration_frees_its_tables_on_return():
    # The span tables are cached for one enumeration only.  With the cyclic
    # garbage collector off, nothing of them may outlive the call.
    code = _code("projective_space", {"m": 2}, 2, F8)  # [73,6]_8: the bit engine
    min_distance(code)
    gc.disable()
    tracemalloc.start()
    try:
        min_distance(code)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < peak // 20


def _long_gf8_code(n):
    rng = random.Random(8)
    reduced, pivots = rref(Matrix(F8, [[rng.randrange(8) for _ in range(n)] for _ in range(5)]))
    assert len(pivots) == 5
    return LinearCode(F8, reduced, [""] * n, [""] * 5, {})


@pytest.mark.parametrize(
    "make",
    [
        lambda: _code("projective_space", {"m": 2}, 3, F5),  # [31,10]_5, float32 products
        lambda: _long_gf8_code(12000),  # [12000,5]_8, bit engine
    ],
    ids=["products", "bits"],
)
def test_weight_distribution_folds_each_block_as_it_is_made(make):
    # Keeping every block until the end would hold ~10 MiB of float32 weights
    # of the 2.4M classes of [31,10]_5, or ~7 MiB of (n+1)-long histograms of
    # the 73 blocks of [12000,5]_8.  Folded as they are made, ~1-2.5 MiB.
    code = make()
    weight_distribution(code)
    tracemalloc.start()
    try:
        codes.weight_distribution(code)  # the engine alone, without the moment check
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_min_distance_holds_one_product_at_a_time():
    # [31,10]_5 in a generic basis, where no split folds, takes the cached
    # lead operand (781 x 125 floats, 381 KiB), a tail operand (125 KiB), one
    # 256 x 256 product (256 KiB) and the spans (122 KiB) at once.  A product
    # kept while the next one is made adds 256 KiB.
    code = _change_basis(_code("projective_space", {"m": 2}, 3, F5), seed=5)
    min_distance(code)
    tracemalloc.start()
    try:
        min_distance(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1100 * 2**10


@pytest.mark.parametrize("n", [1, 31, 255, 256, 1210])  # 255 is the largest paired case
@pytest.mark.parametrize("length", [1, 2, 7, 4097, 65536])
def test_weight_histogram_is_bincount(n, length):
    # Paired counting (n <= 255) and the chunked fallback (n >= 256) against
    # np.bincount, on the products' float32 weights and the bit engine's
    # ints (uint8 words when n <= 32, intp sums otherwise), odd lengths too.
    rng = np.random.default_rng(n * length)
    w = rng.integers(0, n + 1, length)
    w[0], w[-1] = n, 0 if length > 1 else n
    expected = np.bincount(w, minlength=n + 1)
    for dtype in (np.float32, np.uint8 if n <= 32 else np.intp):
        assert np.array_equal(codes._weight_histogram(w.astype(dtype), n), expected)


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 243, 729])
def test_odd_p_vector_addition_is_gf_add(q):
    # Oracle: the polynomial-basis digits added mod p, one by one, against
    # the array add of GF.array_ops on every pair (a fixed sample above 256).
    F = GF.from_order(q)
    ops = F.array_ops()
    dtype, add = ops.dtype, ops.add
    if q <= 256:
        a, b = np.divmod(np.arange(q * q), q)
    else:
        a, b = np.random.default_rng(q).integers(q, size=(2, 5000))
    got = add(a.astype(dtype), b.astype(dtype))
    assert got.dtype == dtype
    expected = [F._from_digits([x + y for x, y in zip(F._digits(s), F._digits(t))])
                for s, t in zip(a.tolist(), b.tolist())]
    assert got.tolist() == expected


def _krawtchouk(j, i, n, q):
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
        for s in range(j + 1)
    )


@pytest.mark.parametrize(
    "family,params,h,fld",
    [
        ("projective_space", {"m": 2}, 1, F2),      # [7,3]_2, dual Hamming [7,4]_2
        ("grassmann", {"l": 2, "m": 4}, 1, F2),     # [35,6]_2
        ("quadric", {"m": 3, "w": 2}, 1, F3),       # [16,4]_3
        ("hermitian", {"m": 2, "r": 2}, 1, F4),     # [9,3]_4
        ("hermitian", {"m": 3, "r": 2}, 1, F4),     # [45,4]_4
        ("projective_space", {"m": 1}, 2, F9),      # [10,3]_9
        ("hermitian", {"m": 2, "r": 3}, 1, F9),     # [28,3]_9
    ],
)
def test_macwilliams_identity(family, params, h, fld):
    # The Krawtchouk transform of A_w is the dual weight distribution: it
    # must be integral and nonnegative with B_0 = 1, and where n - k is
    # small it must equal the enumerated distribution of the dual code.
    code = _code(family, params, h, fld)
    n, k, q = code.n, code.k, fld.q
    A = weight_distribution(code).counts
    B = []
    for j in range(n + 1):
        total = sum(a * _krawtchouk(j, i, n, q) for i, a in A.items())
        assert total >= 0 and total % q**k == 0
        B.append(total // q**k)
    assert B[0] == 1 and sum(B) == q ** (n - k)
    _, kernel = rank_and_kernel(code.generator)
    dual = LinearCode(fld, kernel, [""] * n, [""] * (n - k), {})
    try:
        dual_counts = weight_distribution(dual, budget=10**7).counts
    except BudgetExceeded:
        return
    assert dual_counts == {w: b for w, b in enumerate(B) if b}


def _assert_wei_duality(code):
    # Wei duality: {d_r(C)} and {n + 1 - d_r(C^perp)} partition {1, ..., n}.
    n, k, fld = code.n, code.k, code.field
    _, kernel = rank_and_kernel(code.generator)
    dual = LinearCode(fld, rref(kernel)[0], [""] * n, [""] * (n - k), {})
    primal = [ghw(code, r) for r in range(1, k + 1)]
    shifted = [n + 1 - ghw(dual, r) for r in range(1, n - k + 1)]
    assert sorted(primal + shifted) == list(range(1, n + 1))


@pytest.mark.parametrize(
    "family,params,h,fld",
    [
        ("projective_space", {"m": 2}, 1, F2),          # [7,3]_2
        ("p1xp1", {"alpha": 1, "beta": 1}, 1, F2),     # [9,4]_2
        ("projective_space", {"m": 1}, 2, F5),          # [6,3]_5
    ],
)
def test_wei_duality(family, params, h, fld):
    _assert_wei_duality(_code(family, params, h, fld))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_wei_duality_random_codes(data):
    q = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, n - 1))
    entry = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    F = GF.from_order(q)
    reduced, pivots = rref(Matrix(F, rows))
    assume(len(pivots) == k)
    _assert_wei_duality(LinearCode(F, reduced, [""] * n, [""] * k, {}))


@pytest.mark.parametrize(
    "family,params,h,fld",
    [
        ("quadric", {"m": 2, "w": 1}, 1, F8),       # GF(2^3) path
        ("hermitian", {"m": 1, "r": 3}, 1, F9),     # GF(3^2) path
        ("projective_space", {"m": 1}, 2, F9),
        ("quadric", {"m": 3, "w": 0}, 1, F4),
        ("projective_space", {"m": 2}, 1, F5),      # prime field path
    ],
)
def test_block_engine_matches_naive_enumeration(family, params, h, fld):
    code = _code(family, params, h, fld)
    assert weight_distribution(code).counts == _naive_weight_histogram(code)


def test_veronese_reembedding_equivalence():
    # The degree-2 code on P^2 coincides, up to per-column scaling, with the
    # degree-1 code on the canonicalized image of the quadratic monomial map.
    from varcodes.projgeom import (
        Form,
        canonicalize,
        enumerate_monomials,
        enumerate_projective_points,
    )

    fld = F3
    monos = enumerate_monomials(2, 2)
    images = []
    for p in enumerate_projective_points(2, fld).tolist():
        vec = tuple(
            _monomial_eval(fld, e, p) for e in monos
        )
        images.append(canonicalize(fld, vec))
    veronese = PointSet(
        fld, len(monos) - 1, np.array(images, fld.array_ops().dtype), [str(p) for p in images]
    )
    assert len(set(images)) == len(images)  # no two columns proportional
    c1 = build_evaluation_code(veronese, h=1)
    c2 = _code("projective_space", {"m": 2}, 2, fld)
    assert (c1.n, c1.k) == (c2.n, c2.k)
    assert min_distance(c1) == min_distance(c2)
    assert weight_distribution(c1).counts == weight_distribution(c2).counts


def _monomial_eval(fld, expo, p):
    v = 1
    for x, e in zip(p, expo):
        if e:
            if x == 0:
                return 0
            v = fld.mul(v, fld.pow(x, e))
    return v


def test_toric_single_torus_point_gf2():
    code = _code("toric", {"s": 1, "lattice_points": [[0]]}, 1, F2)
    assert (code.n, code.k) == (1, 1)
    assert min_distance(code) == 1


def test_schubert_code_rank_drops_by_one_relation():
    # The rank condition against the 2-plane flag is the vanishing of one
    # Pluecker coordinate, so one linear form dies on the point set.
    code = _code("schubert", {"l": 2, "m": 4, "alpha": [2, 4]}, 1, F2)
    assert code.n == 19
    assert code.k == 5
    assert code.kernel_dim == 1
    assert weight_distribution(code).counts == _naive_weight_histogram(code)


def test_affine_points_give_classical_reed_muller():
    # On the x0 = 1 block, homogeneous degree-h forms dehomogenize to all
    # polynomials of degree <= h: the [4,3,2] first-order code over GF(2).
    code = _code("projective_space", {"m": 2, "affine": True}, 1, F2)
    assert (code.n, code.k) == (4, 3)
    assert min_distance(code) == 2
    # and over GF(3): n = 9, k = 3, d = (q - h) q^(m-1) = 6
    code3 = _code("projective_space", {"m": 2, "affine": True}, 1, F3)
    assert (code3.n, code3.k, min_distance(code3)) == (9, 3, 6)


def test_eckardt_dichotomy_on_second_field():
    code = _code("del_pezzo", {"l": 6}, 1, F8)
    d = min_distance(code)
    q = 8
    assert d in (q * q + 4 * q, q * q + 4 * q + 1)
    assert eckardt_detect(code) == (d == q * q + 4 * q)


def test_ghw_workers_match_sequential(monkeypatch):
    def no_thread(self):
        raise AssertionError("the ghw enumeration started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    code = _code("grassmann", {"l": 2, "m": 4}, 1, F2)
    assert ghw(code, 2, workers=3) == ghw(code, 2)


def _random_full_rank_code(q, k, n, seed, zero_column):
    """A random full-rank generator, left unreduced (as artifacts may store it)."""
    F = GF.from_order(q)
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        for row in rows[: n if zero_column else 0]:
            row[n // 2] = 0
        if rank(Matrix(F, rows)) == k:
            return LinearCode(F, Matrix(F, rows), [""] * n, [""] * k, {})


def _repeated_parts_code(q, k, n, seed, lead_parts, tail_parts):
    """A full-rank code whose columns repeat a few G' and G'' parts.

    Column j is s_j (p, p'), with p drawn from lead_parts random vectors of
    length ceil(k/2), p' from tail_parts random vectors for the other rows,
    and s_j a random nonzero scalar; column 0 and about one column in 20
    more are zero.
    """
    F = GF.from_order(q)
    ops = F.array_ops()
    rng = np.random.default_rng(seed)
    a = -(-k // 2)
    while True:
        lead = rng.integers(0, q, (a, lead_parts))[:, rng.integers(0, lead_parts, n)]
        tail = rng.integers(0, q, (k - a, tail_parts))[:, rng.integers(0, tail_parts, n)]
        g = ops.mul(np.vstack([lead, tail]).astype(ops.dtype), rng.integers(1, q, n))
        g[:, (rng.random(n) < 0.05) | (np.arange(n) == 0)] = 0
        if rank(Matrix(F, g)) == k:
            return LinearCode(F, Matrix(F, g), [""] * n, [""] * k, {})


def _spy_folds(record):
    """A stand-in for codes._fold that appends (m1, folded) of every split to record."""
    fold = codes._fold

    def spy(g, a, q, ops):
        lead, tail, h = fold(g, a, q, ops)
        record.append((lead.shape[1], h is not None))
        return lead, tail, h

    return spy


@pytest.mark.parametrize(
    "q,k,n,block,zero_column,lead",
    [
        (2, 5, 7, 512, False, "whole"),  # 7 lead rows, 5 a side: two slices of one operand
        (2, 6, 9, 256, False, "per block"),
        (2, 4, 6, 256, True, "whole"),
        (3, 5, 5, 1024, False, "whole"),
        (3, 4, 4, 128, False, "per block"),
        (3, 5, 7, 512, True, "per block"),
        (4, 3, 3, 256, False, "whole"),
        (4, 4, 4, 256, False, "per block"),
        (5, 3, 5, 1024, True, "whole"),
        (5, 5, 9, 4096, False, "per block"),
        (7, 1, 8, 256, False, "whole"),
        (7, 3, 3, 512, False, "per block"),
        (7, 4, 4, 1024, False, "whole"),
        # Folded splits, their parts cut into chunks of 7, 7, 3 and 10.
        (2, 8, 60, 64, True, "folded"),
        (3, 6, 80, 256, True, "folded"),
        (5, 4, 60, 256, True, "folded"),
        (7, 5, 60, 4096, True, "folded"),
    ],
)
def test_class_weights_build_each_operand_once(q, k, n, block, zero_column, lead):
    # With one column chunk, the lead operand is built once when it fits
    # BLOCK // 4 floats and per lead block otherwise.  Either way the weights
    # match the bit engine and the naive histogram, and no operand exceeds
    # BLOCK // 4 entries, on plain and on folded splits.
    seed = 1000 * q + 10 * k + n
    if lead == "folded":
        code = _repeated_parts_code(q, k, n, seed, lead_parts=3 * k, tail_parts=3 * k)
    else:
        code = _random_full_rank_code(q, k, n, seed, zero_column)
    hist = _naive_weight_histogram(code)
    bits = sum(codes._enumerate(code, 1, lambda w: np.bincount(w, minlength=n + 1)))
    assert {0: 1} | {w: (q - 1) * int(c) for w, c in enumerate(bits) if c} == hist
    assert int(min(codes._enumerate(code, 1, np.min))) == min(w for w in hist if w)

    shapes = []  # (lead, rows, columns) of the element rows behind every operand
    folds = []

    def spy(build, is_lead):
        def built(t, *args):
            out = build(t, *args)
            assert out.size <= block // 4
            shapes.append((is_lead, *t.shape))
            return out

        return built

    with (
        mock.patch.object(codes, "BLOCK", block),
        mock.patch.object(codes, "_lead_operand", spy(codes._lead_operand, True)),
        mock.patch.object(codes, "_tail_operand", spy(codes._tail_operand, False)),
        mock.patch.object(codes, "_fold", _spy_folds(folds)),
        mock.patch.object(codes, "_FOLD_FLOOR", 0 if lead == "folded" else codes._FOLD_FLOOR),
    ):
        assert min_distance(code) == ghw(code, 1) == min(w for w in hist if w)
        assert weight_distribution(code).counts == hist
    if lead == "folded":
        m1, folded = folds[0]
        assert folded and any(cols < n for _, _, cols in shapes)
        a, side = -(-k // 2), isqrt(block // 16)
        na, nb = min((q**a - 1) // (q - 1), side), min(q ** (k - a), side)
        assert m1 > (block // 4 // max(na, nb) - 1) // (q - 1)  # the lead parts were cut
        return
    assert not any(folded for _, folded in folds)
    leads, tails = [], []  # classes with u1 != 0 and u2 choices, split by split
    rows = k
    while rows:
        a = -(-rows // 2)
        leads.append((q**a - 1) // (q - 1))
        tails.append(q ** (rows - a))
        rows -= a
    scans = 3  # d, d_1 and wdist
    assert all(cols == n for _, _, cols in shapes)
    assert sum(r for is_lead, r, _ in shapes if not is_lead) == scans * sum(tails)
    lead_rows = sum(r for is_lead, r, _ in shapes if is_lead)
    if lead == "whole":
        assert lead_rows == scans * sum(leads)
    assert ((True, leads[0], n) in shapes) == (lead == "whole")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("seed", range(4))
def test_folded_class_weights_match_bit_engine(q, seed):
    # Random codes with repeated G' and G'' parts, scaled columns and zero
    # columns, folded on every split where that takes fewer flops (the floor
    # patched to 0), at the default BLOCK and at one that cuts the parts.
    rng = random.Random(10 * q + seed)
    k = rng.randint(2, 7 if q <= 3 else 5)
    n = rng.randint(60, 300)
    a = -(-k // 2)
    parts = rng.choice([a, a + 2, 40])
    code = _repeated_parts_code(q, k, n, 10 * q + seed, parts, rng.randint(k - a, 40))
    bits = sum(codes._enumerate(code, 1, lambda w: np.bincount(w, minlength=n + 1)))
    hist = {0: 1} | {w: (q - 1) * int(c) for w, c in enumerate(bits) if c}
    for block in (codes.BLOCK, 4096):
        folds = []
        with (
            mock.patch.object(codes, "BLOCK", block),
            mock.patch.object(codes, "_fold", _spy_folds(folds)),
            mock.patch.object(codes, "_FOLD_FLOOR", 0),
        ):
            assert weight_distribution(code).counts == hist
            assert min_distance(code) == min(w for w in hist if w)
        assert folds[0][1]  # the top split folds


def _change_basis(code, seed):
    """T G with the columns permuted, for a random invertible T: the same code."""
    F, k = code.field, code.k
    ops = F.array_ops()
    rng = np.random.default_rng(seed)
    while True:
        t = rng.integers(0, F.q, (k, k)).astype(ops.dtype)
        if rank(Matrix(F, t)) == k:
            break
    g = code.generator.rows[:, rng.permutation(code.n)]
    rows = np.stack([reduce(ops.add, ops.mul(t[i][:, None], g)) for i in range(k)])
    return LinearCode(F, Matrix(F, rows), [""] * code.n, [""] * k, {})


@pytest.mark.parametrize(
    "family,params,h,q,m1",
    [
        ("grassmann", {"l": 2, "m": 5}, 1, 3, 122),  # the 121 points of P^4(F_3), and 0
        ("projective_space", {"m": 3}, 2, 4, None),
        ("projective_space", {"m": 2}, 3, 5, None),
    ],
)
def test_only_grassmann_codeword_codes_fold(family, params, h, q, m1):
    # The benchmark's codes, in a random basis as its artifacts are: the top
    # split of [1210,10]_3 folds its 1210 columns onto 122 lead parts; no
    # split of the PRM codes [85,10]_4 and [31,10]_5 folds, since their
    # columns have distinct G' parts (in RREF, [31,10]_5 does fold).
    code = _change_basis(_code(family, params, h, GF.from_order(q)), seed=q)
    folds = []
    with mock.patch.object(codes, "_fold", _spy_folds(folds)):
        d = min_distance(code)
    assert d == predict(VarietyDescriptor(family, params), h, q).d
    if m1 is None:
        assert not any(folded for _, folded in folds)
    else:
        assert folds[0] == (m1, True)


def _nogin_spectrum(m, q):
    """The weight enumerator of the Grassmann code C(2, m) over GF(q) (Nogin 1996).

    A codeword is an alternating form of rank 2u, of weight
    sum_(i<u) q^(2m-4-2i); there are
    q^(u(u-1)) prod_(i<2u) (q^(m-i) - 1) / prod_(i=1..u) (q^(2i) - 1) of them.
    """
    counts = {0: 1}
    for u in range(1, m // 2 + 1):
        weight = sum(q ** (2 * m - 4 - 2 * i) for i in range(u))
        number = q ** (u * (u - 1)) * prod(q ** (m - i) - 1 for i in range(2 * u))
        counts[weight] = number // prod(q ** (2 * i) - 1 for i in range(1, u + 1))
    return counts


@pytest.mark.parametrize(
    "m,q", [(5, 2), (5, 3), (5, 4), (4, 5), (4, 7), (6, 2)], ids=lambda v: str(v)
)
def test_grassmann_weight_distribution_is_nogin_spectrum(m, q):
    # [155,10]_2, [1210,10]_3, [5797,10]_4, [806,6]_5, [2850,6]_7 and [651,15]_2.
    # The top splits of four fold; those of [155,10]_2 and [806,6]_5 stay
    # under the floor unless it is patched to 0.
    code = _code("grassmann", {"l": 2, "m": m}, 1, GF.from_order(q))
    for floor in (codes._FOLD_FLOOR, 0):
        with mock.patch.object(codes, "_FOLD_FLOOR", floor):
            assert weight_distribution(code).counts == _nogin_spectrum(m, q)


def _special_columns_code(q, k, n, seed):
    """A random full-rank code whose column 0 is zero, column 1 repeats column
    2 and column 3 is a multiple of column 4 (by a scalar other than 1 when
    q > 2), left unreduced."""
    F = GF.from_order(q)
    ops = F.array_ops()
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, q, (k, n)).astype(ops.dtype)
        g[:, 0] = 0
        g[:, 1] = g[:, 2]
        g[:, 3] = ops.mul(g[:, 4], rng.integers(2, q) if q > 2 else 1)
        if rank(Matrix(F, g)) == k:
            return LinearCode(F, Matrix(F, g), [""] * n, [""] * k, {})


@pytest.mark.parametrize(
    "code",
    [
        lambda: _special_columns_code(2, 5, 14, 1),
        lambda: _special_columns_code(3, 4, 12, 2),
        lambda: _special_columns_code(4, 4, 10, 3),
        lambda: _special_columns_code(5, 3, 9, 4),
        lambda: _special_columns_code(7, 3, 8, 5),
        lambda: _special_columns_code(8, 3, 8, 6),
        lambda: _special_columns_code(9, 3, 7, 7),
        lambda: _code("grassmann", {"l": 2, "m": 4}, 1, F2),  # [35,6]_2
        lambda: _code("quadric", {"m": 3, "w": 2}, 1, F3),  # [16,4]_3
        lambda: _code("p1xp1", {"alpha": 1, "beta": 1}, 1, F2),  # [9,4]_2
        lambda: _code("projective_space", {"m": 1}, 2, F9),  # [10,3]_9
    ],
)
def test_column_spans_match_the_subcode_scan(code):
    # Both d_r paths, called directly, for every r: the column-span search
    # and the subcode scan.  BLOCK = 64 cuts every level into batches and the
    # last level's counts into pieces; the default keeps whole levels.
    code = code()
    scan = [int(min(codes._enumerate(code, r, np.min))) for r in range(1, code.k + 1)]
    for block in (64, codes.BLOCK):
        with mock.patch.object(codes, "BLOCK", block):
            points = codes._column_points(code)
            spans = [codes._column_spans(code, r, *points) for r in range(1, code.k + 1)]
        assert spans == scan


def test_column_points_count_zero_repeated_and_proportional_columns():
    code = _special_columns_code(5, 3, 9, 4)
    points, weight, zeros = codes._column_points(code)
    assert zeros == 1 and points.shape == (3, 6) and weight.sum() == 8
    assert sorted(weight.tolist())[-2:] == [2, 2]  # columns 1, 2 and 3, 4 share points


@pytest.mark.parametrize("m,q", [(4, 2), (4, 3), (4, 4), (4, 5), (5, 2)], ids=str)
def test_grassmann_top_of_the_hierarchy_is_n_minus_a_line(m, q):
    # The Pluecker points of G(2, m) are distinct, and the most of them on a
    # line of P^(k-1) are the q + 1 on a line of G(2, m) (the planes between
    # a point and a 3-space), so d_(k-2) = n - q - 1, d_(k-1) = n - 1 and
    # d_k = n.  A closed form that shares no code with either path.
    code = _code("grassmann", {"l": 2, "m": m}, 1, GF.from_order(q))
    n, k = code.n, code.k
    assert n == gaussian_binomial(m, 2, q)
    assert [ghw(code, r) for r in (k - 2, k - 1, k)] == [n - q - 1, n - 1, n]


def _planned(code, r):
    """The path that codes._plan runs for the r-dim subcodes of code, on stubs."""
    ran = []

    def stub(name):
        def run(*args):
            ran.append(name)
            return [0]

        return run

    with mock.patch.multiple(
        codes, _class_weights=stub("products"), _enumerate=stub("bits"),
        _column_spans=stub("spans"),
    ):
        list(codes._plan(code, r, 2**80)(np.min))
    (path,) = ran
    return path


# The codes of the planner cases: every code that the benchmark measures, by
# the descriptor that builds it (the path depends on n, k, q and, for the
# column spans, the number of distinct column points, which an equivalent
# code shares), and two lengths on either side of the products' 2^23 limit.
_PLAN_CODES = {
    "[2^23 - 1,2]_5": lambda: SimpleNamespace(field=F5, n=2**23 - 1, k=2),
    "[2^23,2]_5": lambda: SimpleNamespace(field=F5, n=2**23, k=2),
    "[8,3]_7": lambda: _code("projective_space", {"m": 1}, 2, F7),
    "[9,3]_8": lambda: _code("projective_space", {"m": 1}, 2, F8),
    "hermitian [280,4]_9": lambda: _code("hermitian", {"m": 3, "r": 3}, 1, F9),
    "prm [85,10]_4": lambda: _code("projective_space", {"m": 3}, 2, F4),
    "prm [31,10]_5": lambda: _code("projective_space", {"m": 2}, 3, F5),
    "grassmann [1210,10]_3": lambda: _code("grassmann", {"l": 2, "m": 5}, 1, F3),
    "flag [52,8]_3": lambda: _code("flag", {"m": 3}, 1, F3),
    "prm [21,6]_4": lambda: _code("projective_space", {"m": 2}, 2, F4),
    "prm [21,10]_4": lambda: _code("projective_space", {"m": 2}, 3, F4),
    "quadric [585,5]_8": lambda: _code("quadric", {"m": 4, "w": 1}, 1, F8),
    "schubert [49,5]_3": lambda: _code("schubert", {"l": 2, "m": 5, "alpha": [2, 4]}, 1, F3),
    "del pezzo [99,4]_7": lambda: _code("del_pezzo", {"l": 6}, 1, F7),
    **{
        f"del pezzo l={l} over GF(5)": partial(_code, "del_pezzo", {"l": l}, 1, F5)
        for l in range(6)  # l = 6 over GF(5) is an error row: no six points in general position
    },
}

PLAN_CASES = [
    # A product's partial sums reach 2n, exact in float32 while 2n < 2^24.
    ("[2^23 - 1,2]_5", 1, "products"),
    ("[2^23,2]_5", 1, "bits"),
    # Scalar classes: float32 products up to GF(7), the bit engine from GF(8) on.
    ("[8,3]_7", 1, "products"),
    ("[9,3]_8", 1, "bits"),
    # d_2 of the Hermitian code scans (raw span estimate 236320 against 2089360
    # subcode steps, so the weighted spans lose); d_3 takes the spans.  At
    # r = k the scan's estimate is n, below the n k entries the spans read.
    *[("hermitian [280,4]_9", r, path)
      for r, path in enumerate(["bits", "bits", "spans", "bits"], 1)],
    # The benchmark: codewords (d and wdist, r = 1).
    ("prm [85,10]_4", 1, "products"),
    ("prm [31,10]_5", 1, "products"),
    ("grassmann [1210,10]_3", 1, "products"),
    # subspaces.
    ("flag [52,8]_3", 1, "products"),
    ("flag [52,8]_3", 2, "bits"),
    ("flag [52,8]_3", 8, "bits"),
    ("prm [21,6]_4", 1, "products"),
    ("prm [21,6]_4", 3, "spans"),
    ("prm [21,6]_4", 6, "bits"),
    ("prm [21,10]_4", 1, "products"),
    ("prm [21,10]_4", 9, "spans"),
    ("prm [21,10]_4", 10, "bits"),
    # cli_build: analyze (d, wdist and the Hermitian ghw:2 above) and compare.
    ("quadric [585,5]_8", 1, "bits"),
    ("schubert [49,5]_3", 1, "products"),
    ("del pezzo [99,4]_7", 1, "products"),
    *[(f"del pezzo l={l} over GF(5)", 1, "products") for l in range(6)],
]


@cache
def _plan_code(name):
    return _PLAN_CODES[name]()


@pytest.mark.parametrize("name,r,path", PLAN_CASES, ids=[f"{c[0]} r={c[1]}" for c in PLAN_CASES])
def test_plan_runs_the_admitted_path_with_the_least_estimate(name, r, path):
    # min_distance and weight_distribution plan r = 1, ghw plans r.
    assert _planned(_plan_code(name), r) == path


@pytest.mark.parametrize(
    "measure", [min_distance, weight_distribution, partial(ghw, r=1)],
    ids=["d", "wdist", "ghw1"],
)
@pytest.mark.parametrize("name,path", [("prm [21,6]_4", "float32 products"),
                                       ("hermitian [280,4]_9", "bit engine")])
def test_budget_refusal_of_the_scalar_classes_names_the_path(measure, name, path):
    code = _plan_code(name)
    q = code.field.q
    estimate = code.n * (q**code.k - 1) // (q - 1)
    with pytest.raises(BudgetExceeded, match=f"the {path} at r = 1 needs ~{estimate} ") as err:
        measure(code, budget=estimate - 1)
    assert err.value.estimate == estimate
    assert measure(code, budget=estimate) == measure(code)


def test_budget_exceeded_carries_the_estimate_of_the_path_that_runs():
    code = _plan_code("hermitian [280,4]_9")
    k, n, q, m = code.k, code.n, 9, code.n  # no two columns on one point
    spans = n * k + codes.SPAN_WEIGHT * sum(
        min(comb(m, i), gaussian_binomial(k, i, q)) * (k - i) * m for i in range(k - 3)
    )
    for r, estimate, path in [
        (2, n * gaussian_binomial(k, 2, q), "bit engine"),
        (3, spans, "column-span search"),
        (4, n, "bit engine"),  # r = k: one subcode, the code itself
    ]:
        with pytest.raises(BudgetExceeded, match=f"the {path} at r = {r} needs ") as err:
            ghw(code, r, budget=estimate - 1)
        assert err.value.estimate == estimate
        assert ghw(code, r, budget=estimate) == int(min(codes._enumerate(code, r, np.min)))


def test_min_distance_does_not_go_through_the_public_ghw():
    # A tracer that wraps ghw must not book the minimum distance as ghw time.
    code = _plan_code("prm [21,6]_4")

    def refuse(*args, **kwargs):
        raise AssertionError("min_distance called the public ghw")

    with mock.patch.object(codes, "ghw", refuse):
        assert min_distance(code) == 12


def test_high_rank_weights_of_a_long_code_fit_the_default_budget():
    # d_8 of G(2,5) over GF(3), [1210,10]_3: n [10 choose 8]_3 = 8.8e10 subcode
    # steps, but a column-span estimate of 4.2e8 (lines through pairs of points).
    code = _code("grassmann", {"l": 2, "m": 5}, 1, F3)
    assert (code.n, code.k) == (1210, 10)
    assert [ghw(code, 8), ghw(code, 9)] == [1206, 1209]
