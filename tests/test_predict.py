"""Closed-form predictions vs measured parameters at desk scale."""

import pytest

from varcodes import bounds
from varcodes.codes import code_from_descriptor, min_distance
from varcodes.errors import InputError, InternalError, OutOfTheoremRange
from varcodes.families import (
    DICHOTOMY,
    EXACT,
    FAMILIES,
    LOWER_BOUND,
    applicable_bounds,
    build_point_set,
    lower_bound_value,
    predict,
)
from varcodes.gf import GF
from varcodes.varieties import VarietyDescriptor

from moments import weight_distribution


def D(family, **params):
    return VarietyDescriptor(family, params)


def test_projective_rm_prediction():
    p = predict(D("projective_space", m=2), 1, 2)
    assert (p.n, p.k, p.d, p.d_status) == (7, 3, 4, EXACT)


def test_quadric_predictions():
    p = predict(D("quadric", m=3, w=0), 1, 3)
    assert (p.n, p.k, p.d) == (10, 4, 6)
    p = predict(D("quadric", m=3, w=2), 1, 8)
    assert (p.n, p.k, p.d) == (81, 4, 64)
    p = predict(D("quadric", m=2, w=1), 1, 4)
    assert (p.n, p.k, p.d) == (5, 3, 3)  # conic: q+1 points, d = q - 1


HYPERBOLIC = {"ambient": 3, "degree": 2, "terms": [[[1, 1, 0, 0], 1], [[0, 0, 1, 1], 1]]}
PARABOLIC = {"ambient": 4, "degree": 2, "terms": [[[2, 0, 0, 0, 0], 1], [[0, 1, 1, 0, 0], 1],
                                                 [[0, 0, 0, 1, 1], 1]]}


def test_quadric_m_and_w_must_agree_with_the_form():
    # x0x1 + x2x3 over GF(3) is the hyperbolic quadric of P^3: the [16,4,9] code.
    with pytest.raises(InputError, match="ambient"):
        predict(D("quadric", m=5, w=0, form=HYPERBOLIC), 1, 3)
    wrong = D("quadric", m=3, w=0, form=HYPERBOLIC)
    with pytest.raises(InputError, match="w = 0"):
        predict(wrong, 1, 3)
    with pytest.raises(InputError, match="w = 0"):
        applicable_bounds(wrong, 1, 3, 16)
    code = code_from_descriptor(wrong, 1, GF.from_order(3))  # built from the form alone
    assert (code.n, code.k, min_distance(code)) == (16, 4, 9)
    p = predict(D("quadric", m=3, w=2, form=HYPERBOLIC), 1, 3)
    assert (p.n, p.k, p.d) == (16, 4, 9)
    p = predict(D("quadric", m=4, w=1, form=PARABOLIC), 1, 8)
    assert p == predict(D("quadric", m=4, w=1), 1, 8)
    assert (p.n, p.k, p.d) == (585, 5, 504)


def test_quadric_h2_dimension_upper_bound():
    p = predict(D("quadric", m=3, w=2), 2, 8)
    assert p.k == 9  # C(5,2) - C(3,0)
    assert p.k_status == "upper-bound"
    assert p.d is None
    with pytest.raises(OutOfTheoremRange):
        predict(D("quadric", m=3, w=2), 3, 8)


def test_quadric_parity_enforced():
    with pytest.raises(InputError, match="parabolic quadrics need even m"):
        predict(D("quadric", m=4, w=2), 1, 3)


def test_hermitian_predictions():
    p = predict(D("hermitian", m=2, r=2), 1, 4)
    assert (p.n, p.k, p.d) == (9, 3, 6)
    assert sorted(p.weights) == [6, 8]
    p = predict(D("hermitian", m=3, r=2), 1, 4)
    assert (p.n, p.k, p.d) == (45, 4, 32)
    assert sorted(p.weights) == [32, 36]
    p = predict(D("hermitian", m=2, r=3), 1, 9)
    assert (p.n, p.k, p.d) == (28, 3, 24)
    with pytest.raises(InputError, match="is not GF"):
        predict(D("hermitian", m=2, r=2), 1, 5)


def test_hermitian_h2_lower_bound():
    p = predict(D("hermitian", m=3, r=2), 2, 4)
    assert (p.n, p.k, p.d, p.d_status) == (45, 15, 15, LOWER_BOUND)
    with pytest.raises(OutOfTheoremRange):
        predict(D("hermitian", m=3, r=2), 3, 4)
    with pytest.raises(OutOfTheoremRange):
        predict(D("hermitian", m=2, r=2), 2, 4)


def test_grassmann_prediction_with_min_words():
    p = predict(D("grassmann", l=2, m=4), 1, 2)
    assert (p.n, p.k, p.d) == (35, 6, 16)
    assert p.extras["min_weight_words"] == 35
    p = predict(D("grassmann", l=2, m=4), 1, 3)
    assert (p.n, p.k, p.d) == (130, 6, 81)
    assert p.extras["min_weight_words"] == 260


def test_flag_prediction():
    p = predict(D("flag", m=3), 1, 2)
    assert (p.n, p.k, p.d) == (21, 8, 6)
    p = predict(D("flag", m=3), 1, 3)
    assert (p.n, p.k, p.d) == (52, 8, 24)


def test_del_pezzo_predictions():
    p = predict(D("del_pezzo", l=4), 1, 5)
    assert (p.n, p.k, p.d, p.d_status) == (51, 6, 25, EXACT)
    p = predict(D("del_pezzo", l=6), 1, 5)
    assert p.d_status == DICHOTOMY
    assert p.d_options == (45, 46)
    with pytest.raises(OutOfTheoremRange):
        predict(D("del_pezzo", l=1), 1, 4)


def test_p1xp1_prediction():
    p = predict(D("p1xp1", alpha=1, beta=1), 1, 3)
    assert (p.n, p.k, p.d) == (16, 4, 9)
    with pytest.raises(OutOfTheoremRange):
        predict(D("p1xp1", alpha=4, beta=1), 1, 3)


def test_refusals():
    with pytest.raises(OutOfTheoremRange) as err:
        predict(D("projective_space", m=2), 5, 3)  # h > q
    assert err.value.hypothesis == "1 <= h <= q"
    with pytest.raises(OutOfTheoremRange):
        predict(D("projective_space", m=2, affine=True), 1, 3)
    with pytest.raises(OutOfTheoremRange):
        predict(D("toric", s=1, lattice_points=[[0]]), 1, 3)


MATCH_CASES = [
    (D("projective_space", m=1), 1, 3),
    (D("projective_space", m=2), 1, 2),
    (D("projective_space", m=2), 2, 3),
    (D("projective_space", m=3), 1, 2),
    (D("quadric", m=2, w=1), 1, 3),
    (D("quadric", m=3, w=2), 1, 2),
    (D("quadric", m=3, w=0), 1, 3),
    (D("quadric", m=4, w=1), 1, 2),
    (D("hermitian", m=2, r=2), 1, 4),
    (D("hermitian", m=3, r=2), 1, 4),
    (D("grassmann", l=2, m=4), 1, 2),
    (D("flag", m=3), 1, 2),
    (D("p1xp1", alpha=1, beta=1), 1, 2),
    (D("p1xp1", alpha=2, beta=1), 1, 3),
    (D("del_pezzo", l=0), 1, 5),
    (D("del_pezzo", l=3), 1, 5),
]


@pytest.mark.parametrize("desc,h,q", MATCH_CASES, ids=lambda v: str(v))
def test_prediction_matches_measurement(desc, h, q):
    pred = predict(desc, h, q)
    code = code_from_descriptor(desc, h, GF.from_order(q))
    assert code.n == pred.n
    assert code.k == pred.k
    d = min_distance(code)
    if pred.d_status == EXACT:
        assert d == pred.d
    elif pred.d_status == LOWER_BOUND:
        assert d >= pred.d
    elif pred.d_status == DICHOTOMY:
        assert d in pred.d_options


def test_hermitian_two_weight_support_matches_prediction():
    for m, r, q in ((2, 2, 4), (3, 2, 4), (2, 3, 9)):
        desc = D("hermitian", m=m, r=r)
        pred = predict(desc, 1, q)
        code = code_from_descriptor(desc, 1, GF.from_order(q))
        support = weight_distribution(code).support()
        assert support == sorted(pred.weights)


def test_grassmann_min_weight_word_counts_measured():
    for q in (2, 3):
        desc = D("grassmann", l=2, m=4)
        pred = predict(desc, 1, q)
        code = code_from_descriptor(desc, 1, GF.from_order(q))
        wd = weight_distribution(code)
        assert wd.counts[pred.d] == pred.extras["min_weight_words"]


def test_applicable_bounds_hermitian_surface():
    desc = D("hermitian", m=3, r=2)
    reps = {r.name: r for r in applicable_bounds(desc, 1, 4, 45)}
    assert lower_bound_value(reps["elementary_bound"]) == 30
    assert lower_bound_value(reps["lachaud_section_bounds"]) == 24
    assert lower_bound_value(reps["sorensen_bound"]) == 32
    assert lower_bound_value(reps["hermitian_ch_bound"]) == 30


FERMAT = {"ambient": 2, "degree": 3, "terms": [[[3, 0, 0], 1], [[0, 3, 0], 1], [[0, 0, 3], 1]]}
LINE = {"ambient": 2, "degree": 1, "terms": [[[1, 0, 0], 1]]}

# (family, params, h, q): together they offer, and keep, every bound candidate.
BOUND_CASES = [
    ("projective_space", {"m": 2}, 1, 3),
    ("quadric", {"m": 3, "w": 0}, 1, 3),
    ("hermitian", {"m": 3, "r": 2}, 1, 4),
    ("grassmann", {"l": 2, "m": 4}, 1, 2),
    ("complete_intersection", {"forms": [LINE, FERMAT]}, 1, 7),
    ("p1xp1", {"alpha": 1, "beta": 2}, 1, 3),
]


def test_every_bound_candidate_is_kept_somewhere():
    """A candidate that its calculator refuses on every case is dead."""
    offered, kept = set(), set()
    for family, params, h, q in BOUND_CASES:
        desc = D(family, **params)
        n = len(build_point_set(desc, GF.from_order(q)))
        offered |= {(family, c.func.__name__) for c in FAMILIES[family].bounds(params, h, q, n)}
        kept |= {(family, r.name) for r in applicable_bounds(desc, h, q, n)}
    assert kept == offered
    assert {f for f, _ in offered} == {name for name, fam in FAMILIES.items() if fam.bounds}


def test_bounds_outside_their_hypotheses_are_left_out():
    # Dimension-0 sections (m = 1) have no projection or section bound.
    assert applicable_bounds(D("quadric", m=1, w=2), 1, 5, 2) == []
    assert applicable_bounds(D("hermitian", m=1, r=2), 1, 4, 3) == []
    names = [r.name for r in applicable_bounds(D("quadric", m=2, w=1), 1, 5, 6)]
    assert names == ["elementary_bound"]  # Lachaud's sections need m >= 3
    names = [r.name for r in applicable_bounds(D("hermitian", m=3, r=2), 3, 4, 45)]
    assert names == ["sorensen_bound"]  # the degree-h section bound needs h < r + 1
    assert applicable_bounds(D("p1xp1", alpha=5, beta=1), 1, 3, 16) == []


def test_cayley_bacharach_needs_the_whole_intersection():
    # x0 = x1^3 + x2^3 = 0 has its 3 = 1 * 3 points over GF(7), but only 1
    # over GF(5), where the bound s - h + 2 = 2 would exceed d = 1.
    desc = D("complete_intersection", forms=[LINE, FERMAT])
    reps = applicable_bounds(desc, 1, 7, 3)
    assert [(r.name, lower_bound_value(r)) for r in reps] == [("cayley_bacharach_bound", 2)]
    assert applicable_bounds(desc, 1, 5, 1) == []


@pytest.mark.parametrize("q", [7, 4])
def test_cayley_bacharach_needs_a_reduced_intersection(q):
    # The Fermat cubic given twice has 9 = 3 * 3 points over GF(7) and GF(4),
    # but it is a curve, not a finite intersection: the Jacobian of the two
    # forms has rank 1 at every point.
    desc = D("complete_intersection", forms=[FERMAT, FERMAT])
    assert len(build_point_set(desc, GF.from_order(q))) == 9
    assert applicable_bounds(desc, 1, q, 9) == []


def test_applicable_bounds_passes_internal_errors_on(monkeypatch):
    def broken(*args):
        raise InternalError("broken calculator")

    monkeypatch.setattr(bounds, "elementary_bound", broken)
    with pytest.raises(InternalError, match="broken calculator"):
        applicable_bounds(D("projective_space", m=2), 1, 3, 13)


def test_applicable_bounds_product_is_tight():
    desc = D("p1xp1", alpha=1, beta=1)
    reps = applicable_bounds(desc, 1, 3, 16)
    assert any(lower_bound_value(r) == 9 for r in reps)
