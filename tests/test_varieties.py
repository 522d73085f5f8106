"""Point-set constructions: counts, invariants, canonical-form choices."""

import json
from itertools import combinations, combinations_with_replacement, compress, product

import numpy as np
import pytest

from varcodes import bounds, varieties
from varcodes.errors import BudgetExceeded, InputError, OutOfTheoremRange
from varcodes.families import build_point_set, check_descriptor
from varcodes.gf import GF
from varcodes.linalg import Matrix, maximal_minors, pivot_patterns, rank
from varcodes.projgeom import (
    Form,
    canonicalize,
    enumerate_monomials,
    enumerate_projective_points,
    evaluate_forms,
)
from varcodes.varieties import (
    VarietyDescriptor,
    classify_quadric,
    complete_intersection_points,
    delpezzo_points,
    flag_points,
    grassmann_points,
    hermitian_form,
    hypersurface_points,
    irreducible_binary_quadratic_coeff,
    product_p1p1_points,
    quadric_normal_form,
    schubert_points,
    toric_basis,
    toric_points,
)

F2, F3, F4, F5, F7, F8, F9 = (
    GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2),
)
F11, F13 = GF(11), GF(13)


def _proportional_pairs(pts) -> bool:
    """True if two columns of the point set are projectively equal."""
    return len({canonicalize(pts.field, p) for p in pts.points.tolist()}) < len(pts)


# -- quadrics -------------------------------------------------------------------


def test_hyperbolic_normal_form_p3():
    f = quadric_normal_form(3, 2, F2)
    assert f.terms == {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}


def test_parabolic_normal_form_p2():
    f = quadric_normal_form(2, 1, F3)
    assert f.terms == {(2, 0, 0): 1, (0, 1, 1): 1}


def test_elliptic_normal_form_p3_gf2():
    # x^2 + x + 1 is irreducible over GF(2), so c = 1 is the smallest choice.
    f = quadric_normal_form(3, 0, F2)
    assert f.terms == {
        (2, 0, 0, 0): 1,
        (1, 1, 0, 0): 1,
        (0, 2, 0, 0): 1,
        (0, 0, 1, 1): 1,
    }


def test_irreducible_binary_quadratic_coeff_by_search():
    # Independent oracle: first c with no root of t^2 + t + c.
    for fld in (F2, F3, F4, F5):
        c = irreducible_binary_quadratic_coeff(fld)
        for smaller in range(c):
            assert any(
                fld.add(fld.add(fld.mul(t, t), t), smaller) == 0
                for t in fld.elements()
            )
        assert all(
            fld.add(fld.add(fld.mul(t, t), t), c) != 0 for t in fld.elements()
        )


def test_normal_form_parity_mismatch():
    with pytest.raises(InputError, match="parabolic quadrics need even m"):
        check_descriptor(VarietyDescriptor("quadric", {"m": 2, "w": 2}), 1, 2)
    with pytest.raises(InputError, match="parabolic quadrics need even m"):
        check_descriptor(VarietyDescriptor("quadric", {"m": 3, "w": 1}), 1, 2)


def test_classify_hyperbolic_p3_gf2():
    f = quadric_normal_form(3, 2, F2)
    assert classify_quadric(f) == (4, 2)
    assert len(hypersurface_points(f)) == 9


def test_classify_elliptic_p3_gf2():
    f = quadric_normal_form(3, 0, F2)
    assert classify_quadric(f) == (4, 0)
    assert len(hypersurface_points(f)) == 5


def test_classify_double_hyperplane():
    f = Form(F3, 2, 2, {(2, 0, 0): 1})
    rho, w = classify_quadric(f)
    assert rho == 1


def test_classify_rejects_non_quadratic():
    with pytest.raises(InputError, match="needs a nonzero quadratic form"):
        classify_quadric(Form.from_coeff_vector(F2, enumerate_monomials(2, 1), (1, 0, 0)))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "m,w", [(2, 1), (3, 0), (3, 2), (4, 1)]
)
def test_nondegenerate_quadric_counts_match_formula(q, m, w):
    fld = GF.from_order(q)
    f = quadric_normal_form(m, w, fld)
    pts = hypersurface_points(f)
    assert len(pts) == bounds.quadric_count(m, w, q)
    assert classify_quadric(f) == (m + 1, w)


@pytest.mark.parametrize("q", [2, 3])
def test_degenerate_quadric_counts_match_cone_formula(q):
    # Cone over a conic in P^3 (rank 3) and a rank-2 pair of planes.
    fld = GF.from_order(q)
    cone = Form(fld, 3, 2, {(2, 0, 0, 0): 1, (0, 1, 1, 0): 1})
    assert classify_quadric(cone) == (3, 1)
    assert len(hypersurface_points(cone)) == bounds.quadric_count(3, 1, q, rho=3)
    pair = Form(fld, 3, 2, {(1, 1, 0, 0): 1})
    assert classify_quadric(pair) == (2, 2)
    assert len(hypersurface_points(pair)) == bounds.quadric_count(3, 2, q, rho=2)
    elliptic_cone = quadric_normal_form(1, 0, fld)
    lifted = Form(fld, 2, 2, {e + (0,): c for e, c in elliptic_cone.terms.items()})
    assert classify_quadric(lifted) == (2, 0)
    assert len(hypersurface_points(lifted)) == bounds.quadric_count(2, 0, q, rho=2)


# -- Hermitian hypersurfaces -------------------------------------------------------


def test_hermitian_form_needs_square_field():
    with pytest.raises(InputError, match="is not GF"):
        check_descriptor(VarietyDescriptor("hermitian", {"m": 2, "r": 2}), 1, 3)


@pytest.mark.parametrize(
    "m,r,fld,expected",
    [(1, 2, F4, 3), (2, 2, F4, 9), (3, 2, F4, 45), (2, 3, F9, 28)],
)
def test_hermitian_point_counts(m, r, fld, expected):
    pts = hypersurface_points(hermitian_form(m, r, fld))
    assert len(pts) == expected
    assert expected == bounds.hermitian_count(m, r)


def test_hermitian_count_meets_weil_upper_bound():
    assert (
        bounds.hermitian_count(3, 2)
        == bounds.weil_hypersurface_interval(4, 3, 3).value["hi"]
    )


def test_zero_locus_of_coordinate_on_line():
    f = Form.from_coeff_vector(F2, enumerate_monomials(1, 1), (1, 0))
    assert len(hypersurface_points(f)) == 1


# -- Grassmannians and Schubert varieties ------------------------------------------


@pytest.mark.parametrize("q,expected", [(2, 35), (3, 130)])
def test_grassmann_counts(q, expected):
    pts = grassmann_points(2, 4, GF.from_order(q))
    assert len(pts) == expected
    assert pts.ambient == 5
    assert not _proportional_pairs(pts)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_grassmann_lines_equal_projective_space(q, m):
    fld = GF.from_order(q)
    pts = grassmann_points(1, m, fld)
    assert pts.points.tolist() == enumerate_projective_points(m - 1, fld).tolist()


@pytest.mark.parametrize("l,m,q", [(1, 3, 4), (2, 4, 3), (3, 6, 2), (2, 5, 3)])
def test_grassmann_points_match_per_pattern_minors(monkeypatch, l, m, q):
    # Reference: the RREF bases of one pivot pattern at a time, free entries
    # in product order, one maximal_minors call per pattern, str labels.
    fld = GF.from_order(q)
    coords, labels = [], []
    for pivots, free in pivot_patterns(l, m):
        reps = []
        for values in product(range(q), repeat=len(free)):
            rep = [[int(c == p) for c in range(m)] for p in pivots]
            for (i, c), v in zip(free, values):
                rep[i][c] = v
            reps.append(rep)
        coords += maximal_minors(fld, np.array(reps, fld.array_ops().dtype)).tolist()
        labels += ["span" + str(rep) for rep in reps]
    calls = []
    monkeypatch.setattr(varieties, "maximal_minors", lambda *a: calls.append(a) or maximal_minors(*a))
    pts = grassmann_points(l, m, fld)
    assert len(calls) == 1
    assert pts.points.tolist() == coords
    assert pts.labels == labels


@pytest.mark.parametrize("q", [2, 9, 16, 257])
def test_point_labels_match_str_join(q):
    fld = GF.from_order(q)
    dtype = fld.array_ops().dtype
    rng = np.random.default_rng(q)
    for pts in (
        enumerate_projective_points(2, fld),
        rng.integers(0, q, (200, 5)).astype(dtype),
        np.zeros((0, 3), dtype),
    ):
        expected = ["(" + ":".join(map(str, p)) + ")" for p in pts.tolist()]
        assert varieties.point_labels(pts, fld) == expected


@pytest.mark.parametrize("q", [2, 3])
def test_plucker_quadric_relation(q):
    # p01*p23 - p02*p13 + p03*p12 = 0, subset coordinates in lex order:
    # (01, 02, 03, 12, 13, 23).
    fld = GF.from_order(q)
    for p in grassmann_points(2, 4, fld).points:
        p01, p02, p03, p12, p13, p23 = p
        acc = fld.mul(p01, p23)
        acc = fld.sub(acc, fld.mul(p02, p13))
        acc = fld.add(acc, fld.mul(p03, p12))
        assert acc == 0


def _subspaces_by_span(l, m, fld):
    """Independent subspace enumeration: all row spans, deduped by point set."""
    vectors = list(product(range(fld.q), repeat=m))[1:]
    spans = {}
    for rows in combinations(vectors, l):
        span = set()
        for coeffs in product(range(fld.q), repeat=l):
            v = tuple(
                # sum of coeff * row over the field, coordinatewise
                _lin(fld, coeffs, rows, j)
                for j in range(m)
            )
            span.add(v)
        if len(span) == fld.q**l:
            spans.setdefault(frozenset(span), rows)
    return spans


def _lin(fld, coeffs, rows, j):
    acc = 0
    for c, row in zip(coeffs, rows):
        acc = fld.add(acc, fld.mul(c, row[j]))
    return acc


def test_grassmann_against_independent_span_enumeration():
    spans = _subspaces_by_span(2, 4, F2)
    assert len(spans) == 35
    mine = {
        frozenset(
            tuple(_lin(F2, coeffs, rep, j) for j in range(4))
            for coeffs in product(range(2), repeat=2)
        )
        for rep in _reps(2, 4, F2)
    }
    assert mine == set(spans)


def _reps(l, m, fld):
    # The RREF basis of each subspace, read back from the point labels.
    labels = grassmann_points(l, m, fld).labels
    return [tuple(map(tuple, json.loads(label.removeprefix("span")))) for label in labels]


@pytest.mark.parametrize("l, m, q", [(1, 3, 4), (2, 4, 3), (3, 6, 2)])
def test_grassmann_labels_are_str_of_each_basis(l, m, q):
    # The labels are formatted in one pass; each must read as "span" + str(basis).
    for label in grassmann_points(l, m, GF.from_order(q)).labels:
        assert label == "span" + str(json.loads(label.removeprefix("span")))


def test_schubert_full_alpha_is_whole_grassmannian():
    full = schubert_points(2, 4, [3, 4], F2)
    assert full.points.tolist() == grassmann_points(2, 4, F2).points.tolist()


def test_schubert_minimal_alpha_single_point():
    assert len(schubert_points(2, 4, [1, 2], F2)) == 1


def test_schubert_rank_condition_filter_oracle():
    # Independent oracle: 2-subspaces of F_2^4 with W meet span(e0,e1)
    # nontrivially, counted over the deduped span enumeration = 19.
    spans = _subspaces_by_span(2, 4, F2)
    a2 = {(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0)}
    oracle = sum(
        1 for span in spans if len(set(span) & a2) > 1
    )
    assert oracle == 19
    assert len(schubert_points(2, 4, [2, 4], F2)) == oracle


def _meet_dims(rep, fld):
    # dim(W meet A_a) = l + a - rank(W + A_a) for A_a = span(e_1..e_a), a = 0..m.
    l, m = len(rep), len(rep[0])
    flag = [[int(c == j) for c in range(m)] for j in range(m)]
    return [l + a - rank(Matrix(fld, [list(r) for r in rep] + flag[:a])) for a in range(m + 1)]


@pytest.mark.parametrize(
    "l, m, q", [(1, 3, 2), (2, 4, 2), (2, 5, 2), (3, 5, 2), (2, 4, 3), (2, 4, 4)]
)
def test_schubert_points_match_rank_condition(l, m, q):
    # Every alpha, non-strict ones included: the Pluecker section keeps the
    # same points, labels and order as the rank condition dim(W meet A_alpha_i)
    # >= i applied to the Grassmannian.
    fld = GF.from_order(q)
    grass = grassmann_points(l, m, fld)
    dims = [_meet_dims(rep, fld) for rep in _reps(l, m, fld)]
    for alpha in combinations_with_replacement(range(1, m + 1), l):
        keep = [all(d[a] >= i for i, a in enumerate(alpha, start=1)) for d in dims]
        got = schubert_points(l, m, list(alpha), fld)
        assert got.points.tolist() == list(compress(grass.points.tolist(), keep)), alpha
        assert got.labels == list(compress(grass.labels, keep)), alpha


def test_schubert_invalid_alpha():
    for alpha in ([4, 3], [0, 4]):
        desc = VarietyDescriptor("schubert", {"l": 2, "m": 4, "alpha": alpha})
        with pytest.raises(InputError, match="need 1 <= a1 <= ... <= a2 <= 4"):
            check_descriptor(desc, 1, 2)


# -- flag varieties ----------------------------------------------------------------


def test_flag_points_m3_gf2():
    pts = flag_points(3, F2)
    assert len(pts) == 21
    assert pts.ambient == 8


@pytest.mark.parametrize("q", [2, 3, 4])
def test_flag_points_m2_is_line(q):
    assert len(flag_points(2, GF.from_order(q))) == q + 1


def test_flag_counts_match_formula():
    assert len(flag_points(3, F3)) == (27 - 1) * (9 - 1) // 4 == 52


def test_flag_pair_table_over_budget_is_refused():
    # P^11(F_3) has 265,720 points, so the pair table would hold 265,720^2 * 12
    # entries; the refusal comes before the table is made.
    refused = r"hyperplanes of P\^11\(F_3\) needs ~\d+ array entries"
    with pytest.raises(BudgetExceeded, match=refused):
        flag_points(12, F3)


def test_flag_incidence_trace_vanishes():
    for fld in (F2, F3):
        m = 3
        for z in flag_points(m, fld).points:
            acc = 0
            for i in range(m):
                acc = fld.add(acc, z[i * m + i])
            assert acc == 0


# -- Del Pezzo surfaces -------------------------------------------------------------


def test_delpezzo_l0_is_veronese():
    pts, basis, base = delpezzo_points(0, F5)
    assert len(pts) == 31
    assert len(basis) == 10
    assert base.shape == (0, 3)


def test_delpezzo_l1_gf7():
    pts, basis, _ = delpezzo_points(1, F7)
    assert len(pts) == 57 + 7 == 64
    assert len(basis) == 9


# The first general-position points of P^2 in enumeration order; the l-point
# search returns the first l of them (recorded from the det/kernel search
# that preceded the incidence search).  Over GF(5) there is no sixth.
_BASE_POINTS = {
    5: [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 3)],
    7: [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 3), (1, 2, 4)],
    8: [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 4), (1, 2, 6)],
    9: [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 3), (1, 2, 4)],
    11: [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 3), (1, 2, 4)],
    13: [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 3), (1, 2, 4)],
}
_DELPEZZO_FIELDS = (F5, F7, F8, F9, F11, F13)


# With test_delpezzo_six_points_impossible_over_gf5 this pins all 42 cases
# l = 0..6 over the fields above.
@pytest.mark.parametrize(
    "l,fld",
    [(l, F) for F in _DELPEZZO_FIELDS for l in range(7) if (l, F.q) != (6, 5)],
    ids=lambda v: str(v.q) if isinstance(v, GF) else str(v),
)
def test_delpezzo_counts_and_separation(l, fld):
    q = fld.q
    pts, basis, base = delpezzo_points(l, fld)
    base = list(map(tuple, base.tolist()))
    assert base == _BASE_POINTS[q][:l]
    assert len(pts) == q * q + q + 1 + q * l
    assert len(basis) == 10 - l
    # no three base points collinear
    for a, b, c in combinations(base, 3):
        assert rank(Matrix(fld, [list(a), list(b), list(c)])) == 3
    # six base points on no conic: their degree-2 monomial values are independent
    if l == 6:
        mul = fld.mul
        veronese = [
            [mul(x, x), mul(x, y), mul(x, z), mul(y, y), mul(y, z), mul(z, z)]
            for x, y, z in base
        ]
        assert rank(Matrix(fld, veronese)) == 6
    # columns pairwise non-proportional (directions separate, points separate)
    assert not _proportional_pairs(pts)


def test_delpezzo_six_points_impossible_over_gf5():
    # Every 6-arc of PG(2,5) lies on a conic (it is an oval, hence a conic),
    # so the no-conic condition is unsatisfiable and the search must fail.
    with pytest.raises(InputError) as exc:
        delpezzo_points(6, F5)
    assert str(exc.value) == "no 6 points of P^2(F_5) in general position found"


@pytest.mark.parametrize("fld", _DELPEZZO_FIELDS, ids=lambda F: str(F.q))
def test_six_point_search_decides_on_the_frame(fld, monkeypatch):
    # Existence is decided on the standard frame first, so l = 6 needs a few
    # conic tests at every q, also where it fails (an exhaustive search over
    # GF(5) reaches 3,100 five-arcs, one det each).
    calls = []
    det = varieties.det
    monkeypatch.setattr(varieties, "det", lambda M: calls.append(1) or det(M))
    try:
        base = varieties._general_position_select(6, fld)
    except InputError as exc:
        assert fld.q == 5 and "general position" in str(exc)
    else:
        assert len(base) == 6
    assert 0 < len(calls) <= 10


def test_delpezzo_six_points_exist_over_gf7():
    pts, basis, base = delpezzo_points(6, F7)
    assert len(pts) == 57 + 42 == 99
    assert len(basis) == 4
    assert not _proportional_pairs(pts)


def test_delpezzo_small_field_rejected():
    with pytest.raises(OutOfTheoremRange, match="need q > 4 for general position") as exc:
        check_descriptor(VarietyDescriptor("del_pezzo", {"l": 1}), 1, 4)
    assert exc.value.hypothesis == "q > 4"


# -- toric, complete intersections, products ----------------------------------------


def test_toric_reed_solomon_structure():
    pts = toric_points(1, F4)
    basis, labels = toric_basis([(0,), (1,)], F4)
    assert len(pts) == 3
    assert [f.degree for f in basis] == [1, 1]
    assert labels == ["t^(0,)", "t^(1,)"]


@pytest.mark.parametrize("q,s", [(2, 1), (3, 2), (4, 2), (5, 1)])
def test_toric_point_count(q, s):
    fld = GF.from_order(q)
    pts = toric_points(s, fld)
    assert len(pts) == (q - 1) ** s
    assert pts.points.tolist() == [[1, *t] for t in product(range(1, q), repeat=s)]


def test_toric_exponent_reduction():
    # exponents live mod q - 1 on the torus
    basis, _ = toric_basis([(5,)], F4)
    assert basis[0].degree == 5 % 3
    with pytest.raises(InputError, match="no lattice points supplied"):
        check_descriptor(VarietyDescriptor("toric", {"s": 1, "lattice_points": []}), 1, 4)
    with pytest.raises(InputError, match="every lattice point needs s = 2 entries"):
        check_descriptor(VarietyDescriptor("toric", {"s": 2, "lattice_points": [[1]]}), 1, 4)


def test_complete_intersection_affine_points():
    # Homogenizations of x_i^q - x_i cut out exactly the affine points.
    q, m = 3, 2
    forms = []
    for i in (1, 2):
        e_hi = tuple(q if j == i else 0 for j in range(m + 1))
        e_lo = tuple(
            (q - 1) if j == 0 else (1 if j == i else 0) for j in range(m + 1)
        )
        forms.append(Form(F3, m, q, {e_hi: 1, e_lo: F3.neg(1)}))
    pts = complete_intersection_points(forms)
    assert len(pts) == q**m
    assert all(p[0] == 1 for p in pts.points)


def test_complete_intersection_two_conics():
    f1 = Form(F5, 2, 2, {(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): 1})
    f2 = Form(F5, 2, 2, {(2, 0, 0): 2, (0, 2, 0): 2, (0, 0, 2): 1})
    pts = complete_intersection_points([f1, f2])
    assert len(pts) == 4


def test_complete_intersection_degenerate_warns():
    with pytest.warns(UserWarning):
        complete_intersection_points(
            [
                Form.from_coeff_vector(F5, enumerate_monomials(2, 1), (0, 1, 0)),
                Form(F5, 2, 2, {(1, 1, 0): 1}),
            ]
        )


@pytest.mark.parametrize("q,expected", [(2, 9), (3, 16)])
def test_product_p1p1_counts(q, expected):
    assert len(product_p1p1_points(GF.from_order(q))) == expected


# -- descriptors --------------------------------------------------------------------


def test_descriptor_round_trip():
    desc = VarietyDescriptor.from_dict({"family": "hermitian", "m": 3, "r": 2})
    assert desc.to_dict() == {"family": "hermitian", "m": 3, "r": 2}
    assert desc.label() == "hermitian(m=3,r=2)"


def test_build_point_set_dispatch():
    assert len(build_point_set(VarietyDescriptor("projective_space", {"m": 2}), F2)) == 7
    assert len(build_point_set(VarietyDescriptor("hermitian", {"m": 2, "r": 2}), F4)) == 9
    p1xp1 = VarietyDescriptor("p1xp1", {"alpha": 1, "beta": 1})
    assert len(build_point_set(p1xp1, F3)) == 16
    with pytest.raises(InputError, match="unknown variety family 'nonsense'"):
        build_point_set(VarietyDescriptor("nonsense", {}), F2)


def test_build_point_set_explicit_quadric_form():
    f = quadric_normal_form(3, 2, F2)
    desc = VarietyDescriptor("quadric", {"form": f.to_dict()})
    assert len(build_point_set(desc, F2)) == 9


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_point_set_invariants_across_families(q):
    fld = GF.from_order(q)
    sets = [build_point_set(VarietyDescriptor("projective_space", {"m": 2}), fld)]
    if q in (4, 9):
        r = 2 if q == 4 else 3
        sets.append(build_point_set(VarietyDescriptor("hermitian", {"m": 2, "r": r}), fld))
    if q <= 3:
        sets.append(build_point_set(VarietyDescriptor("grassmann", {"l": 2, "m": 4}), fld))
        sets.append(build_point_set(VarietyDescriptor("flag", {"m": 3}), fld))
        sets.append(
            build_point_set(VarietyDescriptor("schubert", {"l": 2, "m": 4, "alpha": [3, 3]}), fld)
        )
    if q >= 5:  # GF(5) has no six points in general position
        sets.append(build_point_set(VarietyDescriptor("del_pezzo", {"l": min(q, 6)}), fld))
    forms = [
        {"ambient": 2, "degree": 2, "terms": [[[1, 1, 0], 1]]},
        {"ambient": 2, "degree": 1, "terms": [[[0, 0, 1], 1]]},
    ]
    for family, params in [
        ("toric", {"s": 2, "lattice_points": [[0, 1]]}),
        ("p1xp1", {"alpha": 1, "beta": 1}),
        ("complete_intersection", {"forms": forms}),
    ]:
        sets.append(build_point_set(VarietyDescriptor(family, params), fld))
    dtype = fld.array_ops().dtype
    for s in sets:
        assert isinstance(s.points, np.ndarray)
        assert s.points.shape == (len(s), s.ambient + 1)
        assert s.points.dtype == dtype
        assert (s.points < q).all()
        assert not _proportional_pairs(s)
        assert len(s.labels) == len(s)


def _line_through(fld, a, b):
    from varcodes.linalg import rank_and_kernel

    _, ker = rank_and_kernel(Matrix(fld, [list(a), list(b)]))
    assert ker.nrows == 1
    return tuple(ker.rows[0].tolist())


def _product_form(f, g):
    fld = f.field
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = fld.add(terms.get(e, 0), fld.mul(c1, c2))
    return Form(fld, f.ambient, f.degree + g.degree, terms)


def test_delpezzo_triangle_section_zero_count():
    # Independent check of the blow-up evaluation rule: a triangle of lines
    # with two base points as vertices vanishes at 3q rational points of the
    # plane, all q+1 directions over each vertex, and one direction over
    # nothing else, for 5q = 25 zero columns on the l = 2 surface.
    pts, basis, base = delpezzo_points(2, F5)
    p1, p2 = base = base.tolist()

    def on_line(l, p):
        acc = 0
        for c, x in zip(l, p):
            acc = F5.add(acc, F5.mul(c, x))
        return acc == 0

    plane = enumerate_projective_points(2, F5).tolist()
    l12 = _line_through(F5, p1, p2)
    x1 = next(p for p in plane if p not in (p1, p2) and not on_line(l12, p))
    l1 = _line_through(F5, p1, x1)
    x2 = next(
        p
        for p in plane
        if p not in (p1, p2, x1) and not on_line(l12, p) and not on_line(l1, p)
    )
    l2 = _line_through(F5, p2, x2)
    f12, f1, f2 = (Form.from_coeff_vector(F5, enumerate_monomials(2, 1), l) for l in (l12, l1, l2))
    cubic = _product_form(_product_form(f12, f1), f2)
    assert evaluate_forms([cubic], [p1, p2]).tolist() == [[0, 0]]

    zeros = 0
    for p in plane:
        if p in (p1, p2):
            continue
        zeros += evaluate_forms([cubic], [p])[0, 0] == 0
    for bp in base:
        pivot = next(i for i, x in enumerate(bp) if x != 0)
        a, b = [i for i in range(3) if i != pivot]
        ga, gb = evaluate_forms([cubic.partial(a), cubic.partial(b)], [bp])[:, 0].tolist()
        for u, v in enumerate_projective_points(1, F5).tolist():
            zeros += F5.add(F5.mul(u, ga), F5.mul(v, gb)) == 0
    assert zeros == 25  # so this section's codeword has weight 41 - 25 = 16
