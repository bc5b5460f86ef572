"""Exact rational utilities: parsing, base-2 logarithm brackets, quartic grids.

Everything here is integer/Fraction arithmetic.  Floating point is never
used: quantities like log2(value) are reported as rational *brackets*
[lo, hi] guaranteed to contain the true value, and threshold integers of
the form ceil(c * log2(r)) are resolved by exact power comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatchError, ParseError

__all__ = [
    "parse_rational",
    "format_rational",
    "power_of_two_exponent",
    "log2_bracket",
    "ceil_mul_log2",
    "floor_fourth_root",
    "largest_fourth_power_at_most",
    "majority_error",
    "check_votes",
    "lower_tail",
    "min_odd_votes_for_error",
    "numerators",
]


def parse_rational(text: str) -> Fraction:
    """Parse ``num/den`` or a plain integer literal into a Fraction.

    Outer whitespace is stripped; then comes an optional sign, ASCII digits
    and optionally ``/`` and a positive denominator of ASCII digits, the
    form ``format_rational`` writes.  Anything else is refused: decimal
    notation (rationals are written exactly, ``1/8`` rather than
    ``0.125``), inner spaces, underscores, non-ASCII digits and a signed
    denominator.
    """
    s = text.strip()
    num, slash, den = s.partition("/")
    signed = num.isdigit() or num[1:].isdigit() and num[0] in "+-"
    if signed and s.isascii() and (den.isdigit() or not slash):  # on ASCII, isdigit means 0-9
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except (ValueError, ZeroDivisionError):  # past int's digit limit, or a zero denominator
            pass
    decimal = "." in text or "e" in text.lower()
    raise ParseError(f"expected a rational in num/den or integer form, got {text!r}" + (
        " (decimal notation is not accepted; write 1/8 instead of 0.125)" if decimal else ""))


def format_rational(q: Fraction) -> str:
    """Format as ``num/den``, or ``num`` when the denominator is 1; an int formats as itself."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def numerators(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(D, [v * D for each value]): D is the lcm of the denominators, so each v * D is an integer."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def power_of_two_exponent(r: Fraction) -> int | None:
    """Return k when r == 2**k exactly, else None."""
    if r <= 0:
        return None
    p, q = r.numerator, r.denominator
    if p == 1:
        k = q.bit_length() - 1
        return -k if (1 << k) == q else None
    if q == 1:
        k = p.bit_length() - 1
        return k if (1 << k) == p else None
    return None


def _floor_log2(r: Fraction) -> int:
    """Largest e with 2**e <= r, for r > 0, by exact comparison."""
    p, q = r.numerator, r.denominator
    e = p.bit_length() - q.bit_length()
    # 2**(e-1) < p/q < 2**(e+1), so the estimate is e or one too high
    return e if _le_pow2(e, p, q) else e - 1


def _le_pow2(e: int, p: int, q: int) -> bool:
    """2**e <= p/q, exactly."""
    if e >= 0:
        return (q << e) <= p
    return q <= (p << -e)


def log2_bracket(r: Fraction, precision_bits: int = 20) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] containing log2(r), width <= 2**-precision_bits.

    Exact powers of two yield a zero-width bracket.  Otherwise the bracket
    is produced by interval squaring with outward dyadic rounding; the
    working precision is widened automatically if an intermediate interval
    ever straddles 2.
    """
    if r <= 0:
        raise DimensionMismatchError(f"log2 bracket requires a positive rational, got {r}")
    exact = power_of_two_exponent(r)
    if exact is not None:
        f = Fraction(exact)
        return (f, f)

    e = _floor_log2(r)
    # x = p / q = r / 2**e in [1, 2), by a shift; p / q need not be in lowest terms
    p, q = (r.numerator, r.denominator << e) if e >= 0 else (r.numerator << -e, r.denominator)

    work = 2 * precision_bits + 64
    while True:
        result = _log2_fraction_bits(p, q, precision_bits, work)
        if result is not None:
            frac_bits = result
            lo = e + Fraction(frac_bits, 1 << precision_bits)
            hi = e + Fraction(frac_bits + 1, 1 << precision_bits)
            return (lo, hi)
        work *= 2


def _log2_fraction_bits(p: int, q: int, nbits: int, work: int) -> int | None:
    """First nbits binary digits of log2(x) for x = p / q in [1,2), or None on a tie.

    Maintains an outward-rounded dyadic interval [lo, hi]/2**work around the
    repeatedly squared value; a straddle of 2 means the working precision was
    insufficient to separate the next digit.
    """
    # lo starts >= 2**work; squaring it, or halving it from >= 2 * 2**work, keeps it so
    two = 2 << work
    lo = (p << work) // q
    hi = -((-p << work) // q)
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
    """Smallest integer t with t >= c * log2(r), exactly; c must be positive.

    For r a power of two the product is an integer and is returned directly.
    Otherwise c * log2(r) is irrational, so its ceiling is its floor + 1:
    for c = 1 that floor is ``_floor_log2(r)``, else a sufficiently tight
    bracket pins it.
    """
    if c <= 0:
        raise DimensionMismatchError("coefficient must be positive")
    if r <= 0:
        raise DimensionMismatchError("log2 requires a positive rational")
    exact = power_of_two_exponent(r)
    if exact is not None:
        return c * exact
    if c == 1:
        return _floor_log2(r) + 1
    precision = max(8, c.bit_length() + 4)
    while True:
        lo, hi = log2_bracket(r, precision)
        flo = math.floor(c * lo)
        fhi = math.floor(c * hi)
        if flo == fhi:
            return flo + 1
        precision *= 2


def floor_fourth_root(x: int) -> int:
    """floor(x ** (1/4)) for a non-negative integer, exactly."""
    if x < 0:
        raise DimensionMismatchError("fourth root of a negative integer")
    return math.isqrt(math.isqrt(x))


def largest_fourth_power_at_most(target: Fraction) -> tuple[Fraction, Fraction]:
    """Largest q on the dyadic grid 2**-32 with q**4 <= target.

    Returns (q, q**4).  The grid is refined automatically when the target is
    so small that the initial grid would give q = 0.
    """
    if target <= 0:
        raise DimensionMismatchError("target must be positive")
    bits = 32
    while True:
        scaled = (target.numerator << (4 * bits)) // target.denominator
        root = floor_fourth_root(scaled)
        if root > 0:
            q = Fraction(root, 1 << bits)
            return (q, q**4)
        bits *= 2


def majority_error(correct_mass: Fraction, votes: int) -> Fraction:
    """P[at most floor(t/2) of t independent votes are correct], exactly.

    ``correct_mass`` a = p/q is the per-vote probability of a correct
    outcome; the result is the binomial lower tail, the sum over
    j <= floor(t/2) of C(t,j) * a**j * (1-a)**(t-j).  With r = q - p it is
    summed as the integer sum of C(t,j) * p**j * r**(t-j) over q**t, so
    only the result is a Fraction.
    """
    check_votes(votes)
    p, q, r = _vote_terms(correct_mass)
    return Fraction(lower_tail(p, r, votes), q**votes)


def check_votes(votes: int) -> None:
    """A majority vote needs a positive odd number of votes."""
    if votes < 1 or votes % 2 == 0:
        raise DimensionMismatchError(f"vote count must be a positive odd integer, got {votes}")


def lower_tail(p: int, r: int, votes: int) -> int:
    """The sum over j <= floor(t/2) of C(t,j) * p**j * r**(t-j), for integers p, r.

    With p/q the chance of one correct vote and r = q - p, this over q**t is
    the chance that a majority of t votes is wrong.  It is summed by Horner
    in r, so its one large power is r**(t - floor(t/2)).
    """
    half = votes // 2
    # Horner in r: acc = sum over j <= half of C(t,j) * p**j * r**(half-j)
    acc, p_pow = 0, 1
    for j in range(half + 1):
        acc = acc * r + math.comb(votes, j) * p_pow
        p_pow *= p
    return acc * r ** (votes - half)


def _vote_terms(correct_mass: Fraction) -> tuple[int, int, int]:
    """(p, q, q - p) for a per-vote correct mass p/q in [0,1]."""
    a = Fraction(correct_mass)
    if not 0 <= a <= 1:
        raise DimensionMismatchError(f"correct mass must lie in [0,1], got {a}")
    return a.numerator, a.denominator, a.denominator - a.numerator


def min_odd_votes_for_error(correct_mass: Fraction, target: Fraction) -> int:
    """Smallest odd t <= 20001 whose exact majority error is <= target.

    Requires correct_mass > 1/2, otherwise no amount of voting converges.
    The walk over t = 1, 3, 5, ... takes two votes per step by the exact
    identity tail(t+2) = tail(t) - (a-b) * C(t, (t-1)/2) * (ab)**((t+1)/2),
    b = 1 - a.  With a = p/q and r = q - p, the tail is held as the integer
    tail(t) * q**t, and the last term as the integer
    K = C(t, (t-1)/2) * (pr)**((t+1)/2), so a step costs a few products of
    one large integer with small ones.
    """
    if Fraction(correct_mass) <= Fraction(1, 2):
        raise DimensionMismatchError("majority voting needs per-vote correct mass > 1/2")
    p, q, r = _vote_terms(correct_mass)
    goal = Fraction(target)
    u, v = goal.numerator, goal.denominator
    qq, pr = q * q, p * r
    tail, q_pow, k = r, q, pr  # at t = 1: tail = r/q and K = C(1, 0) * pr
    for t in range(1, 20002, 2):
        if tail * v <= u * q_pow:
            return t
        half = t // 2  # (t-1)/2
        tail = tail * qq - (p - r) * k
        q_pow *= qq
        # C(t+2, half+1) = C(t, half) * 2(2 half + 3) / (half + 2), exactly
        k = k * (2 * pr * (2 * half + 3)) // (half + 2)
    raise DimensionMismatchError(f"no odd vote count up to 20001 reaches error {target}")
