"""Projective point enumeration, monomial bases, form evaluation."""

import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from varcodes import projgeom
from varcodes.bounds import sigma
from varcodes.errors import BudgetExceeded, InputError
from varcodes.gf import GF
from varcodes.projgeom import (
    Form,
    canonicalize,
    enumerate_monomials,
    enumerate_projective_points,
    evaluate_forms,
)


def test_p2_f2_points_and_order():
    pts = enumerate_projective_points(2, GF(2)).tolist()
    assert len(pts) == 7
    assert pts[0] == [1, 0, 0]
    # affine block first, then the hyperplane at infinity blocks
    assert pts[4] == [0, 1, 0]
    assert pts[-1] == [0, 0, 1]


def test_p1_f4_count():
    assert len(enumerate_projective_points(1, GF(2, 2))) == 5


def test_affine_only_block():
    pts = enumerate_projective_points(2, GF(2), affine_only=True)
    assert len(pts) == 4
    assert all(p[0] == 1 for p in pts)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_point_counts_and_non_proportionality(q, m):
    if q**m > 10000:
        pytest.skip("desk-scale sweep only")
    F = GF.from_order(q)
    pts = list(map(tuple, enumerate_projective_points(m, F).tolist()))
    assert len(pts) == sigma(m, q)
    canon = {canonicalize(F, p) for p in pts}
    assert len(canon) == len(pts)
    assert all(p == canonicalize(F, p) for p in pts)


def test_monomial_count_examples():
    assert len(enumerate_monomials(2, 2)) == 6
    for m in range(1, 5):
        assert len(enumerate_monomials(m, 1)) == m + 1
    assert len(enumerate_monomials(3, 2)) == 10


def test_monomial_order_graded_lex():
    assert enumerate_monomials(2, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_evaluate_linear_form():
    F = GF(2)
    f = Form.from_coeff_vector(F, enumerate_monomials(2, 1), (1, 0, 0))
    assert evaluate_forms([f], [(1, 1, 1)])[0, 0] == 1


def test_evaluate_hermitian_membership():
    # x0^3 + x1^3 + x2^3 over GF(4) at (0:1:1): 1 + 1 = 0.
    F = GF(2, 2)
    f = Form(F, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert evaluate_forms([f], [(0, 1, 1)])[0, 0] == 0
    assert evaluate_forms([f], [(1, 0, 0)])[0, 0] == 1


def test_evaluate_hyperbolic_vertex():
    F = GF(2)
    f = Form(F, 3, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    assert evaluate_forms([f], [(1, 0, 0, 0)])[0, 0] == 0


def test_evaluate_dimension_mismatch():
    F = GF(2)
    f = Form.from_coeff_vector(F, enumerate_monomials(1, 1), (1, 0))
    with pytest.raises(InputError, match="point has 3 coordinates, form expects 2"):
        evaluate_forms([f], [(1, 0, 0)])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_form_homogeneity(q):
    F = GF.from_order(q)
    rng = random.Random(q)
    monos = enumerate_monomials(2, 3)
    for _ in range(20):
        f = Form(
            F, 2, 3, {e: rng.randrange(1, F.q) for e in rng.sample(monos, 4)}
        )
        p = tuple(rng.randrange(F.q) for _ in range(3))
        if all(x == 0 for x in p):
            continue
        lam = rng.randrange(1, F.q)
        lp = tuple(F.mul(lam, x) for x in p)
        value_p, value_lp = evaluate_forms([f], [p, lp])[0].tolist()
        assert value_lp == F.mul(F.pow(lam, 3), value_p)


def _naive_value(F, f, point):
    # Sum of c * prod x_i^e_i by repeated table-free _mul_raw, added digit
    # by digit mod p.
    total = 0
    for expo, c in f.terms.items():
        v = c
        for x, e in zip(point, expo):
            for _ in range(e):
                v = F._mul_raw(v, x)
        total = F._from_digits([a + b for a, b in zip(F._digits(total), F._digits(v))])
    return total


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_forms_matches_naive_products(data):
    # Odd p with e > 1 (27, 49) and uint16 elements with no add table (343,
    # 512) included.  Degree 0 gives constant forms (0^0 = 1).  A form's
    # terms come from all monomials of the degree or from one small pool,
    # so forms share some, and a form may have no terms at all.
    q = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9, 25, 27, 49, 343, 512]))
    F = GF.from_order(q)
    m = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 4))
    monos = st.sampled_from(enumerate_monomials(m, degree))
    pool = data.draw(st.lists(monos, min_size=1, max_size=8))
    keys = monos | st.sampled_from(pool)
    element = st.integers(0, F.q - 1)
    forms = [
        Form(F, m, degree, data.draw(st.dictionaries(keys, element, max_size=5)))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    # Any vectors, the zero vector and coordinates equal to 0 included.
    points = data.draw(st.lists(st.tuples(*[element] * (m + 1)), min_size=1, max_size=8))
    got = evaluate_forms(forms, points)
    assert got.shape == (len(forms), len(points))
    assert got.tolist() == [[_naive_value(F, f, p) for p in points] for f in forms]
    assert [evaluate_forms(forms[:1], [p])[0, 0] for p in points] == got[0].tolist()


@pytest.mark.parametrize("q", [2, 9, 27, 729])
def test_evaluate_forms_pads_short_forms_with_zeros(q):
    # The zero form and the one-term form are padded up to the ten terms of
    # the form on every cubic monomial; the padding must add nothing.  The
    # fields add by XOR (2), by table (9, 27) and by the digit rule (729).
    F = GF.from_order(q)
    rng = random.Random(q)
    monos = enumerate_monomials(2, 3)
    forms = [
        Form(F, 2, 3),
        Form.monomial(F, monos[4], rng.randrange(1, q)),
        Form(F, 2, 3, {e: rng.randrange(1, q) for e in monos}),
    ]
    points = [(0, 0, 0), (1, 1, 1)] + [tuple(rng.randrange(q) for _ in range(3)) for _ in range(30)]
    got = evaluate_forms(forms, points)
    assert got.dtype == F.array_ops().dtype
    assert got.tolist() == [[_naive_value(F, f, p) for p in points] for f in forms]
    assert evaluate_forms(forms[:1] * 3, points).tolist() == [[0] * len(points)] * 3


@pytest.mark.parametrize("q", [4, 9, 25])
@pytest.mark.parametrize("cap", [1, 3, 5])
def test_evaluate_forms_in_small_chunks(monkeypatch, q, cap):
    # With a cap of a few term values, a chunk holds one point or a few, so
    # the terms of one form are split over chunks.
    F = GF.from_order(q)
    rng = random.Random(q * cap)
    monos = enumerate_monomials(2, 3)
    forms = [
        Form(F, 2, 3, {e: rng.randrange(1, q) for e in rng.sample(monos, rng.randrange(0, 5))})
        for _ in range(6)
    ]
    points = enumerate_projective_points(2, F)[rng.sample(range(q * q + q + 1), 12)]
    whole = evaluate_forms(forms, points)
    monkeypatch.setattr(projgeom, "CHUNK_ENTRIES", cap)
    assert evaluate_forms(forms, points).tolist() == whole.tolist()
    assert whole.tolist() == [[_naive_value(F, f, p) for p in points.tolist()] for f in forms]


@pytest.mark.parametrize("q", [16, 9])
def test_evaluate_forms_memory_is_bounded(q):
    # The degree-3 monomials of P^4: 35 forms at 69,905 points over GF(16).
    # Term values are made a chunk at a time, so beyond the output the peak
    # stays below a few MiB whatever the number of points.
    F = GF.from_order(q)
    forms = [Form.monomial(F, e) for e in enumerate_monomials(4, 3)]
    points = enumerate_projective_points(4, F)
    tracemalloc.start()
    try:
        out = evaluate_forms(forms, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (35, sigma(4, q))
    assert peak - out.nbytes < 4 * 2**20


def test_projective_enumeration_over_budget_is_refused():
    # 2^41 points of 41 coordinates: refused before any array is made.
    with pytest.raises(BudgetExceeded, match=r"P\^40\(F_2\)"):
        enumerate_projective_points(40, GF(2))
    with pytest.raises(BudgetExceeded):
        enumerate_projective_points(40, GF(2), affine_only=True)


def _hyperplanes(m, F):
    # One linear form per hyperplane of P^m: its coefficients are a point of
    # the dual space.
    monos = enumerate_monomials(m, 1)
    return [Form.from_coeff_vector(F, monos, c) for c in enumerate_projective_points(m, F)]


def test_hyperplane_counts():
    assert len(_hyperplanes(2, GF(2))) == 7
    assert len(_hyperplanes(1, GF(3))) == 4
    assert len(_hyperplanes(3, GF(2, 2))) == 85


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_hyperplane_has_sigma_points(q, m):
    F = GF.from_order(q)
    pts = enumerate_projective_points(m, F)
    expected = sigma(m - 1, q)
    zeros = (evaluate_forms(_hyperplanes(m, F), pts) == 0).sum(axis=1)
    assert zeros.tolist() == [expected] * len(zeros)


def test_form_partial_derivative():
    # d/dx1 of x0*x1^2 + x1*x2^2 over GF(3) is 2*x0*x1 + x2^2.
    F = GF(3)
    f = Form(F, 2, 3, {(1, 2, 0): 1, (0, 1, 2): 1})
    df = f.partial(1)
    assert df.terms == {(1, 1, 0): 2, (0, 0, 2): 1}
    # char divides the exponent: d/dx0 of x0^3 vanishes
    g = Form(F, 2, 3, {(3, 0, 0): 1})
    assert g.partial(0).is_zero()


def _naive_partial(f, i):
    # c * e as e repeated additions of c, merged into a dict of terms.
    F = f.field
    terms = {}
    for expo, c in f.terms.items():
        if expo[i]:
            key = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
            terms[key] = F.add(terms.get(key, 0), reduce(F.add, [c] * expo[i]))
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("q", [3, 4, 9])
def test_form_partial_matches_naive_derivative(q):
    # Degrees up to 7 give exponents divisible by p (2, 4, 6 or 3, 6), whose
    # terms vanish.
    F = GF.from_order(q)
    rng = random.Random(q)
    for _ in range(40):
        degree = rng.randrange(0, 8)
        monos = enumerate_monomials(2, degree)
        terms = {e: rng.randrange(1, q) for e in rng.sample(monos, rng.randrange(len(monos) + 1))}
        f = Form(F, 2, degree, terms)
        for i in range(3):
            df = f.partial(i)
            assert (df.ambient, df.degree) == (2, max(degree - 1, 0))
            assert df.terms == _naive_partial(f, i)


def test_form_serialization_round_trip():
    F = GF(2, 2)
    f = Form(F, 2, 2, {(1, 1, 0): 2, (0, 0, 2): 3})
    assert Form.from_dict(F, f.to_dict()).terms == f.terms
