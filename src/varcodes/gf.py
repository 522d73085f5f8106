"""Exact arithmetic in GF(q), q = p^e.

Elements are plain ints in {0, ..., q-1}: the base-p digits of the index are
the polynomial-basis coordinates (constant term first).  Index 0 is the
additive identity.  This module is the only one that knows the encoding:
the rest of the package goes through the scalar operations of GF, or through
GF.array_ops on numpy arrays of indices: elementwise add, neg, mul and pow,
the scalar multiples of a vector, the values of many monomial terms at many
points, the sums of runs of rows, and the decimal text of every index.

Each field builds its tables once, at construction.  Multiplication,
inversion and powers go through generator-power (exp/log) tables.  Addition
is digitwise mod p: XOR of the indices when p = 2.  For odd p a negation
table and, up to q = 256, the q x q addition table are computed with numpy
from the digit rule; above q = 256, where that table would not fit, the digit
rule runs on each call.  Scalar and array operations read the same tables,
except the array add of a prime field whose sums 2(p - 1) fit the element
dtype (p <= 128 in uint8, p <= 32768 in uint16): there s = a + b, and
min(s, s - p) in that dtype is the sum, since s - p wraps past every sum
when s < p.  The array pow is exp of a multiple of logs, masked to 0 where
the base is 0.  The array mul is one lookup of a sum of logs in the exp
table repeated once and padded with zeros, where the log of 0 lands; up to
q = 16 it is one gather from the q x q product table, at the uint8 index
a q + b.

The modulus is canonical: the monic irreducible of degree e over GF(p)
whose coefficient vector, read as a base-p integer with the constant term
least significant, is smallest (the constant term is kept nonzero so that
e = 1 yields x + 1).  This reproduces the conventional small-field tables
(x^2+x+1, x^3+x+1, x^4+x+1, ...).  The generator is the smallest element
index of multiplicative order q - 1.  Both choices make every downstream
enumeration bit-reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegreeZero,
    DivisionByZero,
    FieldTooLarge,
    InternalError,
    InvalidParams,
    NotPrime,
    invariant,
)

MAX_ORDER = 1 << 16
ADD_TABLE_MAX = 256  # largest q with uint8 elements; odd q up to it get an add table


# Miller-Rabin on these bases is exact below _MR_EXACT_BELOW (Sorenson and
# Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality without trial division past 41, so a huge n answers at once.

    An n >= _MR_EXACT_BELOW that no base divides raises FieldTooLarge.
    """
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_EXACT_BELOW:
        raise FieldTooLarge(f"primality is only decided below {_MR_EXACT_BELOW}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; NotPrime unless q is a prime power >= 2.

    Takes whole l-th roots for prime l = 2, 3, 5, ... while one can exist,
    then tests the last root for primality, so a huge q answers at once.
    """
    p, e, l = q, 1, 2
    while q >= 2 and (r := _iroot(p, l)) >= 2:
        if r**l == p:
            p, e = r, e * l
        else:
            l = next(n for n in range(l + 1, 2 * l + 1) if is_prime(n))
    if is_prime(p):
        return p, e
    raise NotPrime(f"{q} is not a prime power")


def _iroot(q: int, e: int) -> int:
    """The integer part of q^(1/e), q >= 1, by Newton's method from above."""
    x = math.log2(q) / e
    k = max(int(x) - 52, 0)
    r = int(2 ** (x - k) * (1 + 2**-30) + 1) << k  # 2^-30 covers the float error
    while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
        r = s
    return r


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den, coefficients low-degree first, mod p."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _poly_is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division of a monic poly by all monic polys of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = [(idx // p**j) % p for j in range(d)] + [1]
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e in base-p integer order."""
    for idx in range(p**e):
        coeffs = [(idx // p**j) % p for j in range(e)]
        if coeffs[0] == 0:
            continue
        poly = coeffs + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise InternalError(f"no irreducible polynomial of degree {e} over GF({p})")


class GF:
    """The finite field GF(p^e) with canonical modulus and generator tables.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if e < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {e}")
        if e >= MAX_ORDER.bit_length():  # 2^e > MAX_ORDER already; do not build p^e
            raise FieldTooLarge(f"p^e = {p}^{e} exceeds the cap {MAX_ORDER}")
        q = p**e
        if q > MAX_ORDER:
            raise FieldTooLarge(f"p^e = {q} exceeds the cap {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _canonical_modulus(p, e)

        self.generator = self._find_generator()
        self.exp = [0] * max(q - 1, 1)
        self.log = [0] * q  # log[0] unused
        x = 1
        for i in range(q - 1):
            self.exp[i] = x
            self.log[x] = i
            x = self._mul_raw(x, self.generator)
        invariant(x == 1, "generator order check failed")
        invariant(
            sorted(self.exp[: q - 1]) == list(range(1, q)),
            "exp table is not a bijection onto the nonzero elements",
        )
        self._dtype = np.uint8 if q <= ADD_TABLE_MAX else np.uint16
        self._exp_array = np.array(self.exp, self._dtype)
        self._log_array = np.array(self.log, np.int64)
        self._table = self._sum = self._neg = None
        if p > 2:
            self._neg = self._digitwise(0, np.arange(q), -1).tolist()
            if q <= ADD_TABLE_MAX:
                a, b = np.divmod(np.arange(q * q), q)
                self._table = self._digitwise(a, b, 1).astype(np.uint8)  # a + b at a * q + b
                self._table.flags.writeable = False
                self._sum = self._table.reshape(q, q).tolist()  # the same table, for scalars
        self._ops = self._make_array_ops()

    # -- construction helpers ------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def _from_digits(self, digits: list[int]) -> int:
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def _digitwise(self, a, b, sign: int):
        """a + sign * b by the digit rule, on ints or on signed int arrays."""
        p = self.p
        return sum((a // p**i + sign * (b // p**i)) % p * p**i for i in range(self.e))

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial-basis product, no tables (used to build the tables)."""
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % self.p
        return self._from_digits(_poly_mod(prod, list(self.modulus), self.p))

    def _pow_raw(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return r

    def _find_generator(self) -> int:
        n = self.q - 1
        if n == 1:
            return 1
        cofactors = [n // f for f in range(2, n + 1) if n % f == 0 and is_prime(f)]
        for g in range(1, self.q):
            if all(self._pow_raw(g, c) != 1 for c in cofactors):
                return g
        raise InternalError("no generator found")  # impossible: F_q* is cyclic

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._sum is None:
            return self._digitwise(a, b, 1)
        return self._sum[a][b]

    def neg(self, a: int) -> int:
        return a if self.p == 2 else self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("0 has no negative powers")
            return 0
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    def scalar(self, n: int) -> int:
        """Image of the integer n in the prime subfield."""
        return n % self.p

    # -- numpy arrays of elements ---------------------------------------------

    def array_ops(self) -> SimpleNamespace:
        """Elementwise operations on numpy arrays of element indices.

        The namespace, built once per field, holds dtype, the index dtype, and
        these operations, which broadcast and return arrays of that dtype:
          add(a, b), neg(a) and mul(a, b);
          pow(a, n): a^n for integers n >= 0 (an int or an int array), with
            0^0 = 1 and 0^n = 0 for n > 0;
          multiples(u): every scalar multiple of the vector u, one per row:
            0 first, then g^i * u for i = 0, ..., q - 2;
          terms(x, expos, coeffs): the value of c_t * prod_i x_i^E[t, i] at
            every row of the (N, m + 1) array x, as a (T, N) array, for the
            (T, m + 1) exponent matrix E and the T coefficients c;
          add_runs(a, starts): the sums of the runs of rows of a that begin
            at the strictly increasing row indices starts (the last run ends
            at the last row), one row per run, like np.add.reduceat;
        and text, the read-only object array of str(i) for every index i, so
        text[a] is the decimal text of an index array a without a str() call
        per entry.
        """
        return self._ops

    def _make_array_ops(self) -> SimpleNamespace:
        q, dtype, table = self.q, self._dtype, self._table
        exp, log = self._exp_array, self._log_array
        if self.p == 2:
            add, neg = np.bitwise_xor, np.asarray
        else:
            negate = np.array(self._neg, dtype)
            neg = negate.__getitem__
            if self.e == 1 and 2 * (q - 1) <= np.iinfo(dtype).max:
                # s = a + b fits the dtype; s - p wraps past every sum when s < p.
                # On a 729 x 64 uint8 block, 0.007 ms against 0.14 ms for the table.

                def add(a, b):
                    s = np.add(a, b, dtype=dtype, casting="unsafe")
                    return np.minimum(s, s - q, out=s)

            elif table is not None:

                def add(a, b):
                    return table[a.astype(np.uint16) * q + b]

            else:

                def add(a, b):
                    return self._digitwise(a.astype(np.int32), b.astype(np.int32), 1).astype(dtype)

        # For mul, 0 has the log 2(q - 1), past every sum of two true logs; the
        # exp table is repeated once (sums up to 2(q - 2)) and padded with
        # zeros up to the sum of two zero logs, so a product is one lookup.
        mul_log = np.array(self.log, np.int32)
        mul_log[0] = 2 * (q - 1)
        mul_exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype)])

        def mul(a, b):
            return mul_exp[mul_log[a] + mul_log[b]]

        if q <= 16:  # a * b at a q + b: on 1.2M entries, 2-3 ms against 9 ms for the logs
            product = mul(*np.divmod(np.arange(q * q), q))

            def mul(a, b):
                return product.take(np.multiply(a, q, dtype=np.uint8, casting="unsafe") + b)

        def pow(a, n):
            return np.where(a != 0, exp[log[a] * n % (q - 1)], np.equal(n, 0))

        def multiples(u):
            scaled = exp[(np.arange(q - 1)[:, None] + log[u]) % (q - 1)]
            return np.vstack([np.zeros_like(u), np.where(u != 0, scaled, 0)])

        def terms(x, expos, coeffs):
            # log c + sum_i e_i log x_i for every term and row in one matrix
            # product.  A 0 factor's log is `zero`, past every sum of true logs,
            # so a sum that reaches it marks a 0 value.  Below 2^24 float32 is
            # exact for the true sums, and rounding keeps the others >= zero.
            expos = np.asarray(expos)
            zero = (int(expos.sum(axis=1).max(initial=0)) + 1) * (q - 2) + 1
            real = np.float32 if zero < 1 << 24 else np.float64
            lhs = np.column_stack([expos, np.where(coeffs != 0, log[coeffs], zero)])
            rhs = np.vstack([np.where(x != 0, log[x], zero).T, np.ones(len(x))])
            logs = np.minimum(lhs.astype(real) @ rhs.astype(real), zero).astype(np.intp)
            return np.where(logs < zero, exp[logs % (q - 1)], 0).astype(dtype)

        if self.p == 2:

            def add_runs(a, starts):
                if len(starts) == len(a):  # every run is one row
                    return a
                return np.bitwise_xor.reduceat(a, starts, axis=0)

        else:
            # An index is the base-p integer of its digits: sum each digit mod p.
            p, e = self.p, self.e
            digits = [np.arange(q, dtype=dtype) // p**i % p for i in range(e)]

            def add_runs(a, starts):
                if len(starts) == len(a):
                    return a
                out = np.zeros((len(starts),) + a.shape[1:], dtype)
                for i, digit in enumerate(digits):
                    sums = np.add.reduceat(digit.take(a), starts, axis=0, dtype=np.int64)
                    out += (sums % p * p**i).astype(dtype)
                return out

        text = np.array([str(i) for i in range(q)], object)
        text.flags.writeable = False
        return SimpleNamespace(
            dtype=dtype, add=add, neg=neg, mul=mul, pow=pow, multiples=multiples,
            terms=terms, add_runs=add_runs, text=text,
        )

    # -- enumeration & serialization ------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "q": self.q, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "GF":
        fld = field(int(d["p"]), int(d["e"]))
        if "modulus" in d and tuple(d["modulus"]) != fld.modulus:
            raise InvalidParams(
                f"stored modulus {d['modulus']} is not the canonical one"
            )
        if "q" in d and d["q"] != fld.q:
            raise InvalidParams(f"stored q = {d['q']} is not p^e = {fld.q}")
        return fld

    @classmethod
    def from_order(cls, q: int) -> "GF":
        """GF(q) for a prime power q, factoring q as p^e."""
        return field(*prime_power(q))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))


@lru_cache(maxsize=None)
def field(p: int, e: int = 1) -> GF:
    """Cached GF(p^e) constructor; repeated calls return the same object."""
    return GF(p, e)

