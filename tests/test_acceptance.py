"""Acceptance suite: exhaustive measurements vs the published formulas.

Each criterion builds codes, measures exact parameters by brute force, and
compares against the closed-form values at exact equality.  One summary
line is printed per criterion (run with -s to see them on passing tests).

Known unattainable sub-cases are marked xfail(strict=True) with the full
reason; everything else must pass exactly.
"""

import time
from dataclasses import dataclass

import pytest

from varcodes import bounds
from varcodes.codes import (
    DEFAULT_BUDGET,
    code_from_descriptor,
    ghw,
    min_distance,
    weight_distribution,
)
from varcodes.errors import BudgetExceeded
from varcodes.families import applicable_bounds, lower_bound_value, predict
from varcodes.gf import GF
from varcodes.varieties import VarietyDescriptor, hypersurface_points

GHW_SWEEP_BUDGET = 50_000_000


def _report(criterion: str, detail: str):
    print(f"[acceptance {criterion}] PASS {detail}")


@dataclass
class Case:
    desc: VarietyDescriptor
    h: int
    q: int
    code: object
    d: int | None  # None when the enumeration exceeds the default budget


def _measure(family: str, params: dict, h: int, q: int, budget=DEFAULT_BUDGET) -> Case:
    desc = VarietyDescriptor(family, dict(params))
    code = code_from_descriptor(desc, h, GF.from_order(q))
    try:
        d = min_distance(code, budget)
    except BudgetExceeded:
        d = None
    return Case(desc, h, q, code, d)


PRM_GRID = [
    (q, m, h)
    for q in (2, 3, 4, 5)
    for m in (1, 2, 3)
    for h in range(1, min(q, 3) + 1)
]

QUADRIC_GRID = [
    (q, m, w)
    for q in (2, 3, 4, 5, 8)
    for (m, w) in ((2, 1), (3, 0), (3, 2), (4, 1))
]

DEL_PEZZO_TABLE = {0: 15, 1: 15, 2: 15, 3: 16, 4: 25, 5: 35}  # q = 5


@pytest.fixture(scope="module")
def registry():
    cases: dict[str, Case] = {}
    for q, m, h in PRM_GRID:
        cases[f"prm q={q} m={m} h={h}"] = _measure("projective_space", {"m": m}, h, q)
    for q, m, w in QUADRIC_GRID:
        cases[f"quadric q={q} m={m} w={w}"] = _measure("quadric", {"m": m, "w": w}, 1, q)
    cases["hermitian m=2 r=2"] = _measure("hermitian", {"m": 2, "r": 2}, 1, 4)
    cases["hermitian m=3 r=2"] = _measure("hermitian", {"m": 3, "r": 2}, 1, 4)
    cases["hermitian m=2 r=3"] = _measure("hermitian", {"m": 2, "r": 3}, 1, 9)
    cases["grassmann q=2"] = _measure("grassmann", {"l": 2, "m": 4}, 1, 2)
    cases["grassmann q=3"] = _measure("grassmann", {"l": 2, "m": 4}, 1, 3)
    cases["flag q=2"] = _measure("flag", {"m": 3}, 1, 2)
    cases["flag q=3"] = _measure("flag", {"m": 3}, 1, 3)
    cases["p1xp1 q=3"] = _measure("p1xp1", {"alpha": 1, "beta": 1}, 1, 3)
    for l in range(6):
        cases[f"del_pezzo l={l}"] = _measure("del_pezzo", {"l": l}, 1, 5)
    return cases


def test_c01_projective_reed_muller(registry):
    checked = skipped = 0
    for q, m, h in PRM_GRID:
        case = registry[f"prm q={q} m={m} h={h}"]
        n_exp = bounds.sigma(m, q)
        k_exp = bounds.binomial(m + h, h)
        assert (case.code.n, case.code.k) == (n_exp, k_exp), (q, m, h)
        if case.d is None:
            skipped += 1  # enumeration cost above the default budget
            continue
        assert case.d == (q + 1 - h) * q ** (m - 1), (q, m, h)
        checked += 1
    _report("1", f"projective Reed-Muller exact on {checked} codes "
                 f"({skipped} over budget: n,k only)")


def test_c02_quadric_codes(registry):
    for q, m, w in QUADRIC_GRID:
        case = registry[f"quadric q={q} m={m} w={w}"]
        pred = predict(case.desc, 1, q)
        assert (case.code.n, case.code.k, case.d) == (pred.n, pred.k, pred.d), (q, m, w)
    hyp = registry["quadric q=8 m=3 w=2"]
    ell = registry["quadric q=8 m=3 w=0"]
    assert (hyp.code.n, hyp.code.k, hyp.d) == (81, 4, 64)
    assert (ell.code.n, ell.code.k, ell.d) == (65, 4, 56)
    _report("2", f"{len(QUADRIC_GRID)} quadric codes exact incl [81,4,64], [65,4,56]")


def test_c03_hermitian_codes(registry):
    curve = registry["hermitian m=2 r=2"]
    assert (curve.code.n, curve.code.k, curve.d) == (9, 3, 6)
    assert weight_distribution(curve.code).support() == [6, 8]
    surface = registry["hermitian m=3 r=2"]
    assert (surface.code.n, surface.code.k, surface.d) == (45, 4, 32)
    # two-weight claim: supports are r^(2m-1) and r^(2m-1) + (-1)^(m-1) r^(m-1)
    assert weight_distribution(surface.code).support() == [32, 36]
    big = registry["hermitian m=2 r=3"]
    assert (big.code.n, big.code.k, big.d) == (28, 3, 24)
    _report("3", "[9,3,6]{6,8}, [45,4,32]{32,36}, [28,3,24] exact")


def test_c04_grassmann_codes():
    g2 = _measure("grassmann", {"l": 2, "m": 4}, 1, 2)
    assert (g2.code.n, g2.code.k, g2.d) == (35, 6, 16)
    assert weight_distribution(g2.code).counts[16] == 35
    t0 = time.perf_counter()
    g3 = _measure("grassmann", {"l": 2, "m": 4}, 1, 3)
    elapsed = time.perf_counter() - t0
    assert (g3.code.n, g3.code.k, g3.d) == (130, 6, 81)
    assert weight_distribution(g3.code).counts[81] == 260
    assert elapsed < 60.0
    _report("4", f"[35,6,16] (35 min words), [130,6,81] (260 min words), "
                 f"GF(3) run {elapsed:.2f}s")


def test_c05_flag_codes(registry):
    for q, expected in ((2, (21, 8, 6)), (3, (52, 8, 24))):
        case = registry[f"flag q={q}"]
        assert (case.code.n, case.code.k, case.d) == expected
        assert case.code.k == 3 * 3 - 1  # evaluation map is not injective
        assert case.code.kernel_dim == 1
    _report("5", "flag codes [21,8,6] and [52,8,24] exact, k = m^2 - 1")


def test_c06_product_of_lines(registry):
    case = registry["p1xp1 q=3"]
    assert (case.code.n, case.code.k, case.d) == (16, 4, 9)
    cover = bounds.covering_family_bound(16, 4, 4, 1, 1)
    assert case.d == cover.value  # the covering-family bound is tight here
    _report("6", "[16,4,9] exact, covering-family bound tight at 9")


@pytest.mark.parametrize("l", range(6))
def test_c07_del_pezzo_length_and_dimension(registry, l):
    case = registry[f"del_pezzo l={l}"]
    assert (case.code.n, case.code.k) == (31 + 5 * l, 10 - l)
    if l == 5:
        _report("7a", "blow-up codes: n = 31 + 5l, k = 10 - l exact for l = 0..5")


DP_XFAIL_REASON = (
    "tabulated d = {exp} is not attained over GF(5): exhaustive search gives "
    "{got}; the maximal sections are cycles of lines through {l} base points "
    "and reach one fewer rational point than the tabulated count, for every "
    "admissible configuration (verified over GF(5) and GF(7))"
)


@pytest.mark.parametrize(
    "l",
    [
        0,
        1,
        pytest.param(2, marks=pytest.mark.xfail(
            strict=True, reason=DP_XFAIL_REASON.format(exp=15, got=16, l=2))),
        3,
        pytest.param(4, marks=pytest.mark.xfail(
            strict=True, reason=DP_XFAIL_REASON.format(exp=25, got=26, l=4))),
        pytest.param(5, marks=pytest.mark.xfail(
            strict=True, reason=DP_XFAIL_REASON.format(exp=35, got=36, l=5))),
    ],
)
def test_c07_del_pezzo_distance_table(registry, l):
    case = registry[f"del_pezzo l={l}"]
    assert case.d == DEL_PEZZO_TABLE[l], f"l={l}: measured d = {case.d}"
    if l in (0, 1, 3):
        _report("7b", f"l={l}: d = {case.d} matches the table")


@pytest.mark.xfail(
    strict=True,
    reason="every 6-arc of PG(2,5) is a conic (Segre), so no 6 points in "
    "general position exist over GF(5); the blow-up needs q >= 7 "
    "(over GF(7) the measured d = 77 = q^2 + 4q does land in the "
    "published dichotomy)",
)
def test_c07_del_pezzo_cubic_surface_dichotomy():
    from varcodes.codes import eckardt_detect

    case = _measure("del_pezzo", {"l": 6}, 1, 5)
    assert case.d in (45, 46)
    assert eckardt_detect(case.code) == (case.d == 45)


def test_c07_del_pezzo_runtime():
    t0 = time.perf_counter()
    for l in range(6):
        case = _measure("del_pezzo", {"l": l}, 1, 5)
        assert case.d is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("7c", f"fresh build + distance sweep for l = 0..5 in {elapsed:.2f}s")


def test_c08_bound_consistency_sweep(registry):
    rows = 0
    for name, case in registry.items():
        if case.d is None:
            continue
        n, k, q = case.code.n, case.code.k, case.q
        gries = bounds.griesmer(n, k, q).value
        singl = n - k + 1
        assert case.d <= gries <= singl, name
        for rep in applicable_bounds(case.desc, case.h, q, n):
            if rep.name == "sorensen_bound" and case.h != 1:
                continue
            assert lower_bound_value(rep) <= case.d, (name, rep.name)
        rows += 1
    surface = registry["hermitian m=3 r=2"]
    assert bounds.sorensen_bound(45, 1, 2).value == 32 == surface.d
    assert bounds.elementary_bound(45, 3, 2, 4).value == 30 <= surface.d
    assert bounds.lachaud_section_bounds(4, 3, 3, 45).value["d_lower"] == 24 <= surface.d
    _report("8", f"all applicable bounds consistent on {rows} measured codes")


def test_c09_griesmer_attainment(registry):
    for q in (2, 3, 4):
        for m in (2, 3):
            case = registry[f"prm q={q} m={m} h=1"]
            gries = bounds.griesmer(case.code.n, case.code.k, q).value
            assert case.d == gries, f"PRM q={q} m={m} should attain Griesmer"
    ell = registry["quadric q=8 m=3 w=0"]
    assert ell.d == bounds.griesmer(65, 4, 8).value == 56
    hyp = registry["quadric q=8 m=3 w=2"]
    assert hyp.d == 64 < bounds.griesmer(81, 4, 8).value == 69
    _report("9", "Griesmer attainment flags: PRM h=1 and elliptic yes, hyperbolic no")


def test_c10_generalized_hamming_weights(registry):
    simplex = registry["prm q=2 m=2 h=1"].code
    assert [ghw(simplex, r) for r in (1, 2, 3)] == [4, 6, 7]
    swept = 0
    for name, case in registry.items():
        code = case.code
        if not code.generator.rows.any(axis=0).all():  # a zero column
            continue
        computed = []
        for r in range(1, code.k + 1):
            if bounds.gaussian_binomial(code.k, r, case.q) * code.n > GHW_SWEEP_BUDGET:
                continue
            computed.append((r, ghw(code, r, GHW_SWEEP_BUDGET)))
        for (r1, d1), (r2, d2) in zip(computed, computed[1:]):
            assert d1 < d2, (name, r1, r2)
        if computed and computed[-1][0] == code.k:
            assert computed[-1][1] == code.n, name
        if case.d is not None and computed and computed[0][0] == 1:
            assert computed[0][1] == case.d, name
        swept += 1
    _report("10", f"simplex (4,6,7); strict GHW monotonicity on {swept} codes")


def test_c11_calculator_regression():
    v = bounds.dl_a24_params(2, 1).value
    assert (v["n"], v["k"]) == (1485, 5) and v["d_lower"] == 1080
    assert bounds.weil_hypersurface_interval(4, 3, 3).value["hi"] == 45
    assert bounds.hermitian_count(3, 2) == 45
    checked = 0
    for q in (2, 3, 4, 5):
        fld = GF.from_order(q)
        for m, w in ((2, 1), (3, 0), (3, 2), (4, 1)):
            from varcodes.varieties import quadric_normal_form

            pts = hypersurface_points(quadric_normal_form(m, w, fld))
            assert len(pts) == bounds.quadric_count(m, w, q)
            checked += 1
    from varcodes.varieties import grassmann_points, flag_points, hermitian_form

    for q in (2, 3):
        fld = GF.from_order(q)
        assert len(grassmann_points(2, 4, fld)) == bounds.gaussian_binomial(4, 2, q)
        assert len(flag_points(3, fld)) == bounds.flag_count(3, q)
        checked += 2
    for m in (1, 2, 3):
        assert len(hypersurface_points(hermitian_form(m, 2, GF(2, 2)))) == (
            bounds.hermitian_count(m, 2)
        )
        checked += 1
    _report("11", f"calculators exact; {checked} closed-form counts match enumeration")
