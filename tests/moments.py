"""Pless power moments: a check of any measured weight distribution.

The test modules import weight_distribution from here, so every wdist they
measure is checked against the first two moments.
"""

from collections import Counter
from math import comb

from varcodes import codes


def assert_pless_moments(code, wd):
    """The first two Pless power moments of wd, from the generator's columns alone.

    Summed over all codewords, w counts the nonzero columns c with u.c != 0,
    and w^2 the ordered pairs of them: (q-1)q^(k-1) words for one column or a
    proportional pair, (q-1)^2 q^(k-2) for two independent columns
    (MacWilliams-Sloane, ch. 5).
    """
    fld, q, k = code.field, code.field.q, code.k
    points = Counter()  # nonzero columns, scaled to a leading 1
    for col in code.generator.rows.T.tolist():
        lead = next((x for x in col if x), 0)
        if lead:
            points[tuple(fld.mul(fld.inv(lead), x) for x in col)] += 1
    nonzero = sum(points.values())
    proportional = sum(comb(c, 2) for c in points.values())
    one = (q - 1) * q ** (k - 1)
    two = (q - 1) ** 2 * q ** (k - 2) if k >= 2 else 0  # k = 1: no independent pair
    independent = comb(nonzero, 2) - proportional
    moments = [sum(w**i * a for w, a in wd.counts.items()) for i in (1, 2)]
    expected = [nonzero * one, nonzero * one + 2 * (proportional * one + independent * two)]
    # Raised, not asserted: pytest rewrites asserts only in test modules, and
    # python -O drops plain ones.
    if moments != expected:
        raise AssertionError(f"Pless moments {moments}, expected {expected}")


def weight_distribution(code, *args, **kwargs):
    """codes.weight_distribution, checked against the Pless power moments."""
    wd = codes.weight_distribution(code, *args, **kwargs)
    assert_pless_moments(code, wd)
    return wd
