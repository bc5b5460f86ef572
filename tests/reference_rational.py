"""Base-2 logarithm brackets as ``lpbounds.rational`` computed them before its shortcuts.

``log2_bracket`` scaled r into [1, 2) as the Fraction r / 2**e, and
``ceil_mul_log2`` found the ceiling of c * log2(r) for every c, c = 1
included, by tightening a bracket until both ends had one floor.  They are
kept here verbatim, apart from names, as the reference that
``tests/test_rational.py`` compares the shift-scaled bracket and the
c = 1 shortcut (``_floor_log2(r) + 1``) against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from lpbounds.rational import power_of_two_exponent


def _floor_log2(r: Fraction) -> int:
    p, q = r.numerator, r.denominator
    e = p.bit_length() - q.bit_length()
    return e if _le_pow2(e, p, q) else e - 1


def _le_pow2(e: int, p: int, q: int) -> bool:
    if e >= 0:
        return (q << e) <= p
    return q <= (p << -e)


def log2_bracket(r: Fraction, precision_bits: int = 20) -> tuple[Fraction, Fraction]:
    exact = power_of_two_exponent(r)
    if exact is not None:
        f = Fraction(exact)
        return (f, f)

    e = _floor_log2(r)
    x = r / Fraction(2) ** e  # in [1, 2)

    work = 2 * precision_bits + 64
    while True:
        result = _log2_fraction_bits(x, precision_bits, work)
        if result is not None:
            frac_bits = result
            lo = e + Fraction(frac_bits, 1 << precision_bits)
            hi = e + Fraction(frac_bits + 1, 1 << precision_bits)
            return (lo, hi)
        work *= 2


def _log2_fraction_bits(x: Fraction, nbits: int, work: int) -> int | None:
    two = 2 << work
    lo = (x.numerator << work) // x.denominator
    hi = -((-x.numerator << work) // x.denominator)
    bits = 0
    for _ in range(nbits):
        lo = (lo * lo) >> work
        hi = -((-(hi * hi)) >> work)
        bits <<= 1
        if hi < two:
            pass
        elif lo >= two:
            bits += 1
            lo >>= 1
            hi = (hi + 1) >> 1
        else:
            return None
    return bits


def ceil_mul_log2(c: int, r: Fraction) -> int:
    exact = power_of_two_exponent(r)
    if exact is not None:
        return c * exact
    precision = max(8, c.bit_length() + 4)
    while True:
        lo, hi = log2_bracket(r, precision)
        flo = math.floor(c * lo)
        fhi = math.floor(c * hi)
        if flo == fhi:
            return flo + 1
        precision *= 2
