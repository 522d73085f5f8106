"""Bound calculators: frozen values, hypothesis errors, exact rounding."""

import math
import random
from itertools import product

import pytest

from varcodes import bounds
from varcodes.bounds import _ceil_frac_minus_sqrt
from varcodes.codes import code_from_descriptor, min_distance
from varcodes.errors import InputError
from varcodes.gf import GF
from varcodes.varieties import VarietyDescriptor


def test_sigma():
    assert bounds.sigma(-1, 5) == 0
    assert bounds.sigma(0, 5) == 1
    assert bounds.sigma(3, 2) == 15


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_sigma_closed_form_is_the_sum_of_powers(q):
    for m in range(-1, 13):
        assert bounds.sigma(m, q) == sum(q**i for i in range(m + 1))


def test_gaussian_binomial_values():
    assert bounds.gaussian_binomial(4, 2, 2) == 35
    assert bounds.gaussian_binomial(4, 2, 3) == 130
    assert bounds.gaussian_binomial(4, 1, 2) == 15
    assert bounds.gaussian_binomial(4, 4, 2) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gaussian_binomial_is_symmetric_and_q_pascal(q):
    # [m choose l]_q = [m choose m - l]_q, and the q-Pascal rule
    # [m choose l]_q = [m-1 choose l-1]_q + q^l [m-1 choose l]_q.
    g = bounds.gaussian_binomial
    for m in range(9):
        for l in range(m + 1):
            assert g(m, l, q) == g(m, m - l, q)
            if 0 < l:
                assert g(m, l, q) == g(m - 1, l - 1, q) + q**l * g(m - 1, l, q)


def test_elementary_bound():
    assert bounds.elementary_bound(45, 3, 2, 4).value == 30
    # hyperplane case: s = 1
    assert bounds.elementary_bound(100, 1, 3, 3).value == 100 - 13
    with pytest.raises(InputError, match="degree 5 is not <"):
        bounds.elementary_bound(45, 5, 2, 4)


def test_covering_family_bound():
    assert bounds.covering_family_bound(16, 4, 4, 1, 1).value == 9
    assert bounds.covering_family_bound(16, 4, 4, 0, 0).value == 16
    with pytest.raises(InputError, match="need 0 <= l <= a"):
        bounds.covering_family_bound(16, 4, 4, 1, 5)
    with pytest.raises(InputError, match="need 0 <= eta <= N"):
        bounds.covering_family_bound(16, 4, 4, 5, 1)


def test_cayley_bacharach_values():
    rep = bounds.cayley_bacharach_bound([3, 3], 2)
    assert rep.value["cayley_bacharach"] == 3
    assert rep.value["ballico_fontanari"] == 4
    assert rep.notes  # hypothesis note present
    # endpoint h = s gives 2
    assert bounds.cayley_bacharach_bound([3, 3], 3).value["cayley_bacharach"] == 2
    with pytest.raises(InputError, match="need 1 <= h <= s = 3, got h=4"):
        bounds.cayley_bacharach_bound([3, 3], 4)
    with pytest.raises(InputError, match="need 1 <= h <= s = 3, got h=0"):
        bounds.cayley_bacharach_bound([3, 3], 0)


def test_cayley_bacharach_matches_brute_force_on_affine_plane():
    # The 9 affine points of P^2(F_3) are a reduced (3,3) complete
    # intersection; the degree-2 code there has d = 3, matching the bound.
    from varcodes.codes import build_evaluation_code, min_distance
    from varcodes.families import applicable_bounds, lower_bound_value
    from varcodes.gf import GF
    from varcodes.projgeom import Form
    from varcodes.varieties import VarietyDescriptor, complete_intersection_points

    F3 = GF(3)
    forms = []
    for i in (1, 2):
        e_hi = tuple(3 if j == i else 0 for j in range(3))
        e_lo = tuple(2 if j == 0 else (1 if j == i else 0) for j in range(3))
        forms.append(Form(F3, 2, 3, {e_hi: 1, e_lo: 2}))
    pts = complete_intersection_points(forms)
    assert len(pts) == 9
    code = build_evaluation_code(pts, h=2)
    assert min_distance(code) == 3
    # Each point is reduced (the Jacobian has rank 2), so the bound is offered.
    desc = VarietyDescriptor("complete_intersection", {"forms": [f.to_dict() for f in forms]})
    reps = applicable_bounds(desc, 2, 3, 9)
    assert [(r.name, lower_bound_value(r)) for r in reps] == [("cayley_bacharach_bound", 3)]
    # Ballico-Fontanari would give 4, but the affine plane has collinear
    # triples, so only the plain bound applies; equality shows tightness.


def test_weil_hypersurface_interval():
    assert bounds.weil_hypersurface_interval(4, 2, 3).value == {"lo": 1, "hi": 9}
    assert bounds.weil_hypersurface_interval(4, 3, 3).value["hi"] == 45
    v = bounds.weil_hypersurface_interval(7, 3, 1).value
    assert v["lo"] == v["hi"] == bounds.sigma(2, 7)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_weil_plane_curve_radius_is_2g_sqrt_q(q, s):
    g = (s - 1) * (s - 2) // 2
    v = bounds.weil_hypersurface_interval(q, 2, s).value
    radius = v["hi"] - bounds.sigma(1, q)
    assert radius == math.isqrt(4 * g * g * q)


def test_lachaud_section_bounds_hermitian_surface():
    v = bounds.lachaud_section_bounds(4, 3, 3, 45).value
    assert v["section_interval"]["hi"] == 21
    assert v["d_lower"] == 24  # r^5 - r^4 + r^3 at r = 2


def test_lachaud_section_bounds_hyperplane_case():
    v = bounds.lachaud_section_bounds(5, 3, 1, bounds.sigma(2, 5)).value
    assert v["section_interval"]["lo"] == v["section_interval"]["hi"] == 6
    assert v["d_lower"] == bounds.sigma(2, 5) - 6


def test_lachaud_radii_monotone_in_degree():
    prev = -1
    for s in range(1, 6):
        v = bounds.lachaud_section_bounds(4, 3, s, 100).value
        radius = v["section_interval"]["hi"] - bounds.sigma(1, 4)
        assert radius >= prev
        prev = radius


def test_griesmer_values():
    assert bounds.griesmer(7, 3, 2).value == 4
    assert bounds.griesmer(130, 6, 3).value == 84
    assert bounds.griesmer(81, 4, 8).value == 69
    assert bounds.griesmer(65, 4, 8).value == 56
    assert bounds.griesmer(100, 1, 5).value == 100


def test_griesmer_min_n_consistency():
    # min_n at the max_d never exceeds n, and d+1 would overflow it.
    for (n, k, q) in [(7, 3, 2), (130, 6, 3), (81, 4, 8)]:
        d = bounds.griesmer(n, k, q).value
        assert bounds.griesmer(d, k, q, mode="min_n").value <= n
        assert bounds.griesmer(d + 1, k, q, mode="min_n").value > n
    with pytest.raises(InputError, match="unknown mode 'nonsense'"):
        bounds.griesmer(7, 3, 2, mode="nonsense")


def test_griesmer_matches_the_plain_loop():
    def length_for(d, k, q):
        return sum(-(-d // q**i) for i in range(k))

    def max_d(n, k, q):
        d = n
        while d > 0 and length_for(d, k, q) > n:
            d -= 1
        return d

    for q, k, n in product((2, 3, 4, 5, 7, 9), range(1, 8), range(-3, 120)):
        assert bounds.griesmer(n, k, q).value == max_d(n, k, q)
        assert bounds.griesmer(n, k, q, mode="min_n").value == length_for(n, k, q)


def test_griesmer_answers_at_once_for_huge_n_and_k():
    # The plain loops take one step per unit of d and per term.
    assert bounds.griesmer(10**11, 3, 2).value == 57142857142  # floor(4n/7)
    assert bounds.griesmer(10**7, 10**8, 2).value == 0
    assert bounds.griesmer(5, 10**8, 2, mode="min_n").value == 5 + 3 + 2 + (10**8 - 3)


def test_sorensen_bound():
    assert bounds.sorensen_bound(45, 1, 2).value == 32
    # n - (h(r^3+r^2-r) + r + 1) with h=2, r=2: 45 - 23 = 22
    assert bounds.sorensen_bound(45, 2, 2).value == 22
    rep = bounds.sorensen_bound(45, 0, 2)
    assert rep.value == 45 - 3
    assert any("CONJECTURE" in note for note in rep.notes)
    assert any("outside" in note for note in rep.notes)


def test_hermitian_ch_bound():
    assert bounds.hermitian_ch_bound(45, 1, 2).value == 30
    assert bounds.hermitian_ch_bound(45, 2, 2).value == 15
    with pytest.raises(InputError, match="need h < r"):
        bounds.hermitian_ch_bound(45, 3, 2)


def test_ruled_surface_bound():
    assert bounds.ruled_surface_bound(5, 2, 1, 2, 0).value == {"n": 15, "d_lower": 6}
    v = bounds.ruled_surface_bound(5, 2, 0, 0, 0).value
    assert v["d_lower"] == v["n"]
    with pytest.raises(InputError, match="need b2 < a"):
        bounds.ruled_surface_bound(5, 2, 1, 5, 0)
    with pytest.raises(InputError, match="need invariant e >= 0"):
        bounds.ruled_surface_bound(5, 2, 1, 2, -1)


def test_dl_a24_params():
    v = bounds.dl_a24_params(2, 1).value
    assert v == {"n": 1485, "k": 5, "d_lower": 1080}
    assert bounds.dl_a24_params(2, 4).value["k"] == 65
    with pytest.raises(InputError, match="need 1 <= h <= q"):
        bounds.dl_a24_params(2, 5)


@pytest.mark.parametrize(
    "q,ks,d", [(2, [5, 15, 34, 65], 120), (3, [5, 15, 35, 69], 2160)], ids=["q=2", "q=3"]
)
def test_dl_a24_params_are_the_hermitian_threefold_times_q3_plus_1(q, ks, d):
    # Measured on the Hermitian threefold of P^4 over GF(q^2): the calculator's
    # n and its h = 1 d_lower are q^3 + 1 times the threefold code's n and d,
    # and its k is the threefold code's k.
    threefold = VarietyDescriptor("hermitian", {"m": 4, "r": q})
    codes = [code_from_descriptor(threefold, h, GF.from_order(q * q)) for h in range(1, 5)]
    assert [c.k for c in codes] == ks
    for h, code in enumerate(codes, 1):
        value = bounds.dl_a24_params(q, h).value
        assert (value["n"], value["k"]) == ((q**3 + 1) * code.n, code.k)
    assert min_distance(codes[0]) == d
    assert bounds.dl_a24_params(q, 1).value["d_lower"] == (q**3 + 1) * d


def test_counts_dispatch():
    assert bounds.counts("quadric", m=3, w=0, q=2).value == 5
    assert bounds.counts("grassmann", m=4, l=2, q=2).value == 35
    assert bounds.counts("grassmann_min_weight_words", l=2, m=4, q=2).value == 35
    assert bounds.counts("grassmann_min_weight_words", l=2, m=4, q=3).value == 260
    assert bounds.counts("hermitian", m=3, r=2).value == 45
    assert bounds.counts("flag", m=3, q=2).value == 21
    assert bounds.counts("projective_space", m=2, q=2).value == 7
    with pytest.raises(InputError, match="unknown count family"):
        bounds.counts("nonsense")


def test_quadric_count_validation():
    with pytest.raises(InputError, match="characters 0 and 2 need even rank"):
        bounds.quadric_count(3, 2, 2, rho=3)
    with pytest.raises(InputError, match="needs odd rank"):
        bounds.quadric_count(3, 1, 2, rho=4)
    with pytest.raises(InputError, match="character must be 0, 1 or 2"):
        bounds.quadric_count(3, 3, 2)


def test_ceil_frac_minus_sqrt_exact():
    rng = random.Random(0)
    for _ in range(500):
        num = rng.randrange(-200, 2000)
        den = rng.randrange(1, 40)
        sq = rng.randrange(0, 5000)
        got = _ceil_frac_minus_sqrt(num, den, sq)
        # high-precision reference via integer comparisons
        import fractions

        target = fractions.Fraction(num, den)
        # smallest integer c with c >= num/den - sqrt(sq):
        # c + sqrt(sq) >= num/den
        def ge_target(c):
            lhs = fractions.Fraction(c) - target  # need lhs >= -sqrt(sq)
            if lhs >= 0:
                return True
            return lhs * lhs <= sq  # both sides negative: square flips

        assert ge_target(got)
        assert not ge_target(got - 1)


def test_reports_are_json_friendly():
    import json

    rep = bounds.lachaud_section_bounds(4, 3, 3, 45)
    text = json.dumps(rep.to_dict())
    assert "lachaud_section_bounds" in text
    fields = ["name", "inputs", "value", "anchor", "notes"]
    assert list(rep.to_dict().items()) == [(f, getattr(rep, f)) for f in fields]
