"""Closed-form point counts and minimum-distance bounds.

Every function here is a pure integer calculator.  Where a bound involves
q^((m-1)/2) with m even, the radius is irrational; reported integer
intervals use floored radii (tightest interval containing every achievable
integer count) and weight lower bounds use exact ceilings, so the integer
statements are never weaker or stronger than the real ones.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import Any

from .errors import InputError, invariant


@dataclass
class BoundReport:
    name: str
    inputs: dict
    value: Any
    anchor: str
    notes: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def sigma(m: int, q: int) -> int:
    """#P^m(F_q) = q^m + ... + q + 1 = (q^(m+1) - 1) / (q - 1), and 0 for m < 0."""
    return (q ** (m + 1) - 1) // (q - 1) if m >= 0 else 0


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def gaussian_binomial(m: int, l: int, q: int) -> int:
    """Number of l-dimensional subspaces of F_q^m."""
    if l < 0 or l > m:
        return 0
    l = min(l, m - l)  # [m choose l]_q = [m choose m - l]_q, by the fewer factors
    num = den = 1
    for i in range(l):
        num *= q**m - q**i
        den *= q**l - q**i
    invariant(num % den == 0, "Gaussian binomial is not an integer")
    return num // den


def _floor_sqrt_times(a: int, sq: int) -> int:
    """floor(a * sqrt(sq)) for nonnegative integers."""
    return math.isqrt(a * a * sq)


def _ceil_frac_minus_sqrt(num: int, den: int, sq: int) -> int:
    """ceil(num/den - sqrt(sq)) computed exactly (den > 0, sq >= 0)."""
    # ceil(x) = -floor(-x) with -x = (den*sqrt(sq) - num)/den.
    t2 = sq * den * den
    s = math.isqrt(t2)
    if s * s == t2:
        return -((s - num) // den)
    k = (s - num) // den
    u = (k + 1) * den + num  # floor is k+1 iff u <= den*sqrt(sq)
    if u <= 0 or u * u <= t2:
        k += 1
    return -k


# -- general minimum-distance bounds ------------------------------------------


def elementary_bound(n: int, s: int, delta: int, q: int) -> BoundReport:
    """d >= n - s*(q^(delta-1) + ... + 1) for a degree-s, dimension-delta variety."""
    if delta < 1:
        raise InputError("variety dimension must be >= 1")
    if s >= q + 1:
        raise InputError(f"degree {s} is not < q + 1 = {q + 1}")
    value = n - s * sigma(delta - 1, q)
    return BoundReport(
        "elementary_bound",
        {"n": n, "s": s, "delta": delta, "q": q},
        value,
        "Lachaud linear-projection bound",
    )


def covering_family_bound(n_points: int, a: int, N: int, eta: int, l: int) -> BoundReport:
    """d >= #S - l*N - (a - l)*eta for points spread over a curves."""
    if eta > N or eta < 0:
        raise InputError(f"need 0 <= eta <= N, got eta={eta}, N={N}")
    if l > a or l < 0:
        raise InputError(f"need 0 <= l <= a, got l={l}, a={a}")
    value = n_points - l * N - (a - l) * eta
    return BoundReport(
        "covering_family_bound",
        {"n_points": n_points, "a": a, "N": N, "eta": eta, "l": l},
        value,
        "Hansen covering-family bound",
    )


def cayley_bacharach_bound(degrees: list[int], h: int) -> BoundReport:
    """Bounds for C_h codes on a reduced complete intersection point set.

    Returns both the Cayley-Bacharach value s - h + 2 (s = sum(d_i) - m - 1)
    and the Ballico-Fontanari improvement m*(s - h) + 2, the latter valid
    only when every m+1 of the points span the ambient space.
    """
    m = len(degrees)
    if m < 1 or any(d < 1 for d in degrees):
        raise InputError("degrees must be a nonempty list of positive ints")
    s = sum(degrees) - m - 1
    if not 1 <= h <= s:
        raise InputError(f"need 1 <= h <= s = {s}, got h={h}")
    return BoundReport(
        "cayley_bacharach_bound",
        {"degrees": list(degrees), "h": h, "s": s},
        {"cayley_bacharach": s - h + 2, "ballico_fontanari": m * (s - h) + 2},
        "Cayley-Bacharach bound (Gold-Little-Schenck) with Ballico-Fontanari variant",
        notes=[
            "ballico_fontanari assumes every m+1 of the points span the ambient space"
        ],
    )


def weil_hypersurface_interval(q: int, m: int, s: int) -> BoundReport:
    """Integer interval for #X(F_q), X a smooth nondegenerate degree-s hypersurface."""
    if m < 2:
        raise InputError("need ambient dimension m >= 2")
    if s < 1:
        raise InputError("degree must be >= 1")
    b_num = (s - 1) * ((s - 1) ** m - (-1) ** m)
    invariant(b_num % s == 0, "Betti number is not an integer")
    b = b_num // s
    center = sigma(m - 1, q)
    radius = _floor_sqrt_times(b, q ** (m - 1))
    lo = max(center - radius, 0)
    return BoundReport(
        "weil_hypersurface_interval",
        {"q": q, "m": m, "s": s, "b": b},
        {"lo": lo, "hi": center + radius},
        "Weil-type hypersurface point-count bound",
    )


def lachaud_section_bounds(q: int, m: int, s: int, n: int) -> BoundReport:
    """Hyperplane-section intervals and the weight bounds they imply.

    n must be the full point count #X(F_q) of the smooth nondegenerate
    degree-s hypersurface X (the weight bounds assume S = X(F_q)).
    Returns the interval for #X_H, the interval for q*#X_H - #X, the two
    direct codeword-weight lower bounds, and their maximum (floored at 0)
    as an overall lower bound for d.
    """
    if m < 3:
        raise InputError("need ambient dimension m >= 3")
    a1 = (s - 1) ** (m - 1)
    a2 = (s - 1) ** (m - 1) * (q + s - 1)
    a3 = s * (s - 1) ** (m - 1)
    qpow = q ** (m - 1)
    c1 = sigma(m - 2, q)
    r1 = _floor_sqrt_times(a1, qpow)
    r2 = _floor_sqrt_times(a2, qpow)
    section_interval = {"lo": max(c1 - r1, 0), "hi": c1 + r1}
    diff_interval = {"lo": -r2, "hi": r2}
    # weight >= (q-1)n/q - a2*sqrt(q^(m-1)), exact ceiling
    w_avg = _ceil_frac_minus_sqrt((q - 1) * n, q, a2 * a2 * qpow)
    w_aff = q ** (m - 2) - _floor_sqrt_times(a3, qpow)
    d_lower = max(0, n - section_interval["hi"], w_avg, w_aff)
    return BoundReport(
        "lachaud_section_bounds",
        {"q": q, "m": m, "s": s, "n": n},
        {
            "section_interval": section_interval,
            "q_section_minus_total_interval": diff_interval,
            "weight_bound_mean": w_avg,
            "weight_bound_affine": w_aff,
            "d_lower": d_lower,
        },
        "Lachaud hyperplane-section bounds",
    )


def griesmer(n: int, k: int, q: int, mode: str = "max_d") -> BoundReport:
    """Griesmer bound: n >= sum_{i<k} ceil(d/q^i).

    mode="max_d": largest d consistent with (n, k); mode="min_n": the sum
    for given d (pass d via n).  Neither steps through every d or every
    term: max_d bisects, and once q^i > |d| every further term ceil(d/q^i)
    is 1 (d > 0) or 0.
    """
    if k < 1:
        raise InputError("need k >= 1")

    def length_for(d: int) -> int:
        total, power = 0, 1
        for i in range(k):
            if power > abs(d):
                return total + (k - i) * (d > 0)
            total -= -d // power
            power *= q
        return total

    if mode == "min_n":
        value = length_for(n)  # here n plays the role of d
    elif mode == "max_d":
        # The largest d in 0..n with length_for(d) <= n (n itself if n <= 0),
        # by bisection: length_for is non-decreasing and length_for(d) >= d.
        lo, hi = min(n, 0), n + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if length_for(mid) <= n else (lo, mid)
        value = lo
    else:
        raise InputError(f"unknown mode {mode!r}")
    return BoundReport(
        "griesmer", {"n": n, "k": k, "q": q, "mode": mode}, value, "Griesmer bound"
    )


def singleton(n: int, k: int) -> BoundReport:
    return BoundReport(
        "singleton", {"n": n, "k": k}, n - k + 1, "Singleton bound"
    )


def sorensen_bound(n: int, h: int, r: int) -> BoundReport:
    """Conjectured d >= n - (h(r^3 + r^2 - r) + r + 1) for Hermitian surface codes."""
    notes = ["CONJECTURE (Sorensen); proved for h = 2 by Edoukou"]
    if h < 1:
        notes.append("h < 1 is outside the conjectured model; value is degenerate")
    value = n - (h * (r**3 + r**2 - r) + r + 1)
    return BoundReport(
        "sorensen_bound",
        {"n": n, "h": h, "r": r},
        value,
        "Sorensen conjecture for Hermitian surface codes",
        notes=notes,
    )


def hermitian_ch_bound(n: int, h: int, r: int) -> BoundReport:
    """d >= n - h(r+1)(r^2+1) for degree-h codes on the Hermitian surface."""
    if h >= r + 1:
        raise InputError(f"need h < r + 1 = {r + 1}, got {h}")
    value = n - h * (r + 1) * (r**2 + 1)
    return BoundReport(
        "hermitian_ch_bound",
        {"n": n, "h": h, "r": r},
        value,
        "Hermitian surface degree-h section bound",
    )


def ruled_surface_bound(a: int, q: int, b1: int, b2: int, e: int) -> BoundReport:
    """Parameters of codes on a normalized ruled surface over a curve.

    a = number of rational points of the base curve, divisor class
    b1*C0 + b2*f with invariant e >= 0.
    """
    if e < 0:
        raise InputError("need invariant e >= 0")
    if b2 >= a:
        raise InputError(f"need b2 < a, got b2={b2}, a={a}")
    if b1 < 0 or b2 < 0:
        raise InputError("need b1, b2 >= 0")
    n = a * (q + 1)
    d_lower = n - b2 * (q + 1) - (a - b2) * b1
    if d_lower <= 0:
        raise InputError(f"bound is non-positive ({d_lower})")
    return BoundReport(
        "ruled_surface_bound",
        {"a": a, "q": q, "b1": b1, "b2": b2, "e": e},
        {"n": n, "d_lower": d_lower},
        "Hansen ruled-surface bound",
    )


def dl_a24_params(q: int, h: int) -> BoundReport:
    """Parameters of codes on the Deligne-Lusztig surface of type 2A4."""
    if not 1 <= h <= q**2:
        raise InputError(f"need 1 <= h <= q^2 = {q**2}, got {h}")
    n = (q**5 + 1) * (q**3 + 1) * (q**2 + 1)
    k = binomial(4 + h, h)
    if h >= q + 1:
        k -= binomial(4 + h - (q + 1), h - (q + 1))
    P = (q**3 + 1) * (q**5 + 1) + (q + 1) * (q**3 + 1) * (q**2 - h + 1)
    return BoundReport(
        "dl_a24_params",
        {"q": q, "h": h},
        {"n": n, "k": k, "d_lower": n - h * P},
        "Hansen Deligne-Lusztig surface (type 2A4) code parameters",
    )


# -- closed-form point counts --------------------------------------------------


def quadric_count(m: int, w: int, q: int, rho: int | None = None) -> int:
    """#V(f)(F_q) for a rank-rho character-w quadric in P^m.

    rho defaults to m+1 (nondegenerate).  Degenerate quadrics are cones:
    vertex P^(m-rho) plus q^(m-rho+1) copies of the nondegenerate count
    in P^(rho-1).
    """
    if rho is None:
        rho = m + 1
    if not 1 <= rho <= m + 1:
        raise InputError(f"rank must be in 1..{m + 1}, got {rho}")
    if w not in (0, 1, 2):
        raise InputError(f"character must be 0, 1 or 2, got {w}")
    d = rho - 1  # the nondegenerate quadric lives in P^d
    if w == 1:
        if d % 2 != 0:
            raise InputError("character 1 (parabolic) needs odd rank")
        core = sigma(d - 1, q)
    else:
        if d % 2 != 1:
            raise InputError("characters 0 and 2 need even rank")
        core = sigma(d - 1, q) + (w - 1) * q ** ((d - 1) // 2)
    return sigma(m - rho, q) + q ** (m - rho + 1) * core


def hermitian_count(m: int, r: int) -> int:
    """#X(F_{r^2}) for the nondegenerate Hermitian hypersurface in P^m."""
    if m < 1 or r < 2:
        raise InputError("need m >= 1 and r >= 2")
    b_num = r * (r**m - (-1) ** m)
    invariant(b_num % (r + 1) == 0, "Hermitian count is not an integer")
    b = b_num // (r + 1)
    return sigma(m - 1, r**2) + b * r ** (m - 1)


def flag_count(m: int, q: int) -> int:
    """Rational point-hyperplane flags: (q^m - 1)(q^(m-1) - 1)/(q - 1)^2."""
    if m < 2:
        raise InputError("need m >= 2")
    num = (q**m - 1) * (q ** (m - 1) - 1)
    invariant(num % (q - 1) ** 2 == 0, "flag count is not an integer")
    return num // (q - 1) ** 2


def grassmann_min_weight_words(l: int, m: int, q: int) -> int:
    """Number of minimum-weight codewords of the Grassmannian code."""
    return (q - 1) * gaussian_binomial(m, l, q)


COUNT_FORMULAS = {
    "projective_space": sigma,
    "quadric": quadric_count,
    "hermitian": hermitian_count,
    "grassmann": gaussian_binomial,
    "flag": flag_count,
    "grassmann_min_weight_words": grassmann_min_weight_words,
}


def counts(family: str, **params) -> BoundReport:
    """A closed-form point count, by formula name and keyword parameters."""
    if family not in COUNT_FORMULAS:
        raise InputError(f"unknown count family {family!r}")
    value = COUNT_FORMULAS[family](**params)
    return BoundReport(
        "counts", {"family": family, **params}, value, "closed-form point count"
    )
