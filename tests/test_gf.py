"""Field arithmetic: table integrity, axioms, Frobenius, conjugation."""

import random
from functools import reduce

import numpy as np
import pytest

from varcodes.errors import (
    DegreeZero,
    DivisionByZero,
    FieldTooLarge,
    NotPrime,
)
from varcodes.gf import _MR_EXACT_BELOW, GF, field, is_prime, prime_power

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64]


def test_gf2_basics():
    F = GF(2)
    assert F.q == 2
    assert F.modulus == (1, 1)  # x + 1
    assert F.elements() == range(2)
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1


def test_gf4_canonical_modulus_is_unique_irreducible():
    # Exhaustive check: x^2 + x + 1 is the only monic irreducible quadratic
    # over GF(2), so the canonical choice is forced.
    def has_root(c0, c1):
        return any((t * t + c1 * t + c0) % 2 == 0 for t in (0, 1))

    irreducibles = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1) if not has_root(c0, c1)]
    assert irreducibles == [(1, 1, 1)]
    assert GF(2, 2).modulus == (1, 1, 1)


def test_gf4_generator_is_class_of_x():
    F = GF(2, 2)
    assert F.generator == 2
    # g * g = g + 1: oracle is polynomial multiplication mod x^2 + x + 1,
    # x * x = x^2 = x + 1, which has element index 3.
    assert F.mul(2, 2) == 3


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        GF(4, 1)


def test_degree_zero_rejected():
    with pytest.raises(DegreeZero):
        GF(2, 0)


def test_field_too_large():
    with pytest.raises(FieldTooLarge):
        GF(2, 17)


def _trial_prime_power(q):
    # Reference: the least divisor of q is prime, and q must be a power of it.
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(-2, 5000):
        try:
            got = prime_power(q)
        except NotPrime:
            got = None
        assert got == (_trial_prime_power(q) if q >= 2 else None), q
    for p in (43, 47, 65521, 1000003, 2**61 - 1):
        for e in (1, 2, 3, 6, 12):
            assert prime_power(p**e) == (p, e)
            with pytest.raises(NotPrime):
                prime_power(p**e * 2)
            # No factor up to 41: decided by Miller-Rabin within its exact range.
            composite = p**e * 53
            with pytest.raises(NotPrime if composite < _MR_EXACT_BELOW else FieldTooLarge):
                prime_power(composite)
    assert prime_power(2**14000) == (2, 14000)
    assert prime_power(43**2500) == (43, 2500)


def test_is_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to every prime base up to 7, 23 and 37 in turn.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert [n for n in range(200) if is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))
    ]


def test_is_prime_refuses_past_its_exact_range():
    with pytest.raises(FieldTooLarge):
        is_prime(2**127 - 1)
    assert not is_prime(2**127)  # a factor up to 41 still decides


def test_fermat_little_theorem_gf5():
    F = GF(5)
    assert F.pow(2, 4) == 1
    assert all(F.pow(a, 4) == 1 for a in F.nonzero())


def test_inverse_of_one():
    for q in AXIOM_ORDERS:
        F = GF.from_order(q)
        assert F.inv(1) == 1


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        GF(3).inv(0)


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_exp_log_round_trip(q):
    F = GF.from_order(q)
    for i in range(q - 1):
        assert F.log[F.exp[i]] == i
    assert sorted(F.exp[: q - 1]) == list(range(1, q))


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_exp_table_multiplicative(q):
    F = GF.from_order(q)
    for i in range(0, q - 1, max(1, (q - 1) // 17)):
        for j in range(q - 1):
            assert F.mul(F.exp[i], F.exp[j]) == F.exp[(i + j) % (q - 1)]


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms_exhaustive(q):
    F = GF.from_order(q)
    add = [[F.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[F.mul(a, b) for b in range(q)] for a in range(q)]
    rng = range(q)
    for a in rng:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][F.neg(a)] == 0
        if a:
            assert mul[a][F.inv(a)] == 1
        for b in rng:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in rng:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_frobenius_is_additive(q):
    F = GF.from_order(q)
    p = F.p
    for a in range(q):
        for b in range(q):
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def _digit_oracle(F, a, b):
    # a + b, a - b and -a from the polynomial-basis digits, one by one.
    da, db = F._digits(a), F._digits(b)
    return (
        F._from_digits([x + y for x, y in zip(da, db)]),
        F._from_digits([x - y for x, y in zip(da, db)]),
        F._from_digits([-x for x in da]),
    )


def _pairs(q):
    # Every pair up to q = 256; a fixed sample above, where the field has no
    # addition table and adds digit by digit on each call.
    if q <= 256:
        return [(a, b) for a in range(q) for b in range(q)]
    rng = random.Random(q)
    return [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)]


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 25, 27, 243, 256, 729])
def test_addition_is_digitwise_mod_p(q):
    F = GF.from_order(q)
    for a, b in _pairs(q):
        assert (F.add(a, b), F.sub(a, b), F.neg(a)) == _digit_oracle(F, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 25, 243, 256, 729])
def test_array_mul_neg_pow_match_polynomial_arithmetic(q):
    # Oracles that never read the exp/log or negation tables: the
    # table-free polynomial product _mul_raw (every pair; a fixed sample for
    # q = 729), _pow_raw (square and multiply by _mul_raw) for powers, and negation digit by digit.
    F = GF.from_order(q)
    ops = F.array_ops()
    assert F.array_ops() is ops  # built once, at construction
    if q <= 256:
        a, b = np.divmod(np.arange(q * q), q)
    else:
        a, b = np.random.default_rng(q).integers(q, size=(2, 5000))
    a, b = a.astype(ops.dtype), b.astype(ops.dtype)
    got = ops.mul(a, b)
    assert got.dtype == ops.dtype
    assert got.tolist() == [F._mul_raw(s, t) for s, t in zip(a.tolist(), b.tolist())]
    x = b[:q]  # every element for q <= 256
    assert ops.neg(x).dtype == ops.dtype
    assert ops.neg(x).tolist() == [F._from_digits([-d for d in F._digits(s)]) for s in x.tolist()]
    for n in (0, 1, 2, q - 1, q + 1):
        assert ops.pow(x, n).dtype == ops.dtype
        assert ops.pow(x, n).tolist() == [F._pow_raw(s, n) for s in x.tolist()], n


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 27, 243, 256, 512, 729])
def test_array_terms_and_add_runs_match_scalar_arithmetic(q):
    # terms against the scalar pow and mul, add_runs against the scalar add.
    # The largest exponent sets the product's type: float32 for 3 and 300,
    # float64 for 2^24.
    # The last term, (big, 0, 1) with coefficient r = g^(q-2), reaches the
    # largest sum of logs at the point (r : r : r).
    F = GF.from_order(q)
    ops = F.array_ops()
    rng = np.random.default_rng(q)
    r = F.exp[q - 2]
    x = rng.integers(q, size=(500, 3)).astype(ops.dtype)
    x[:5] = [[0, 0, 0], [0, 1, 2 % q], [1, 0, 0], [q - 1, q - 1, 0], [r, r, r]]
    for big in (3, 300, 1 << 24):
        expos = rng.integers(0, 4, size=(7, 3))
        expos[:3] = [[0, 0, 0], [big, 0, 1], [0, 2, 0]]
        expos[-1] = [big, 0, 1]
        coeffs = rng.integers(q, size=7).astype(ops.dtype)
        coeffs[:2] = [1, 0]
        coeffs[-1] = r
        got = ops.terms(x, expos, coeffs)
        assert got.dtype == ops.dtype
        want = [
            [reduce(F.mul, (F.pow(v, n) for v, n in zip(row, e)), c) for row in x.tolist()]
            for e, c in zip(expos.tolist(), coeffs.tolist())
        ]
        assert got.tolist() == want, big
    for starts in ([0], [0, 1, 2, 3, 4, 5, 6], [0, 2, 3, 6], [1, 5]):
        sums = ops.add_runs(got, np.array(starts))
        assert sums.dtype == ops.dtype
        ends = starts[1:] + [len(got)]
        assert sums.tolist() == [
            [reduce(F.add, col, 0) for col in zip(*want[a:b])] for a, b in zip(starts, ends)
        ]


def test_conjugate_gf4():
    # The conjugation a -> a^r of GF(r^2) over GF(r), computed by F.pow; each
    # term x^(r+1) of the Hermitian form is x times its conjugate.
    F = GF(2, 2)
    assert F.pow(2, 2) == 3  # g^2 = g + 1 mod x^2 + x + 1
    assert F.pow(0, 2) == 0


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_conjugate_is_involution(r):
    F = GF.from_order(r * r)
    for a in F.elements():
        assert F.pow(F.pow(a, r), r) == a


@pytest.mark.parametrize("r", [2, 3])
def test_conjugate_is_subfield_linear(r):
    F = GF.from_order(r * r)
    subfield = [c for c in F.elements() if F.pow(c, r) == c or c == 0]
    assert len(subfield) == r
    for c in subfield:
        for a in F.elements():
            assert F.pow(F.mul(c, a), r) == F.mul(c, F.pow(a, r))
    for a in F.elements():
        for b in F.elements():
            assert F.pow(F.add(a, b), r) == F.add(F.pow(a, r), F.pow(b, r))


def test_canonical_moduli_match_convention():
    # Constant-coefficient-least-significant integer order reproduces the
    # conventional small-field moduli.
    assert GF(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert GF(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert GF(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert GF(5, 2).modulus == (2, 0, 1)  # x^2 + 2


def test_field_cache_returns_same_object():
    assert field(2, 2) is field(2, 2)
    assert GF.from_order(9) is GF.from_order(9)


def test_serialization_round_trip():
    F = GF(3, 2)
    assert GF.from_dict(F.to_dict()) is field(3, 2)


@pytest.mark.parametrize("q", [3, 5, 7, 127, 131, 251, 257])
def test_prime_field_array_addition_is_digitwise_on_every_pair(q):
    # Up to p = 128 in uint8 (and p = 32768 in uint16) the array add is
    # min(a + b, a + b - p) in the element dtype; GF(131) and GF(251) keep
    # the table, because a + b would wrap in uint8 there.
    F = GF(q)
    ops = F.array_ops()
    a, b = np.divmod(np.arange(q * q), q)
    got = ops.add(a.astype(ops.dtype), b.astype(ops.dtype))
    assert got.dtype == ops.dtype
    assert got.tolist() == F._digitwise(a, b, 1).tolist()
