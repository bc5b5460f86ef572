from fractions import Fraction

import pytest
from conftest import assert_refuses
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_rational
from reference_boost import reference_majority_error, reference_min_odd_votes

from lpbounds import rational
from lpbounds.errors import DimensionMismatchError, ParseError
from lpbounds.model import Subcube
from lpbounds.qcbounds import _cube_family
from lpbounds.rational import (
    ceil_mul_log2,
    floor_fourth_root,
    format_rational,
    largest_fourth_power_at_most,
    log2_bracket,
    lower_tail,
    min_odd_votes_for_error,
    parse_rational,
    power_of_two_exponent,
)


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-2") == -2
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" 7/8 ") == Fraction(7, 8)


def test_parse_rational_rejects_decimals_naming_the_form():
    with pytest.raises(ParseError) as exc:
        parse_rational("0.125")
    assert "num/den" in str(exc.value)


def test_format_round_trip():
    for q in [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)]:
        assert parse_rational(format_rational(q)) == q


@settings(max_examples=300, deadline=None)
@given(st.fractions())
def test_format_then_parse_is_the_identity(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_reads_a_sign_ascii_digits_and_a_positive_denominator():
    assert parse_rational("+5") == 5
    assert parse_rational("\t-0\n") == 0
    assert parse_rational("12/04") == 3


@pytest.mark.parametrize("token", [
    "1_0", "1_0/3", "\u0661\u0662", "\uff13/\uff18", "\u00b2", "1 / 2", "1/ 2", "- 1", "2/-3", "2/+3",
    "1/0", "1/00", "+-1", "--1", "", "   ", "+", "-", "/3", "3/", "1/2/3", "0x10", "0.125", "1e3",
])
def test_parse_rational_refuses_every_other_token(token):
    """Underscores, non-ASCII digits, inner spaces, a signed or zero denominator: no writer emits them."""
    with pytest.raises(ParseError, match="num/den"):
        parse_rational(token)


def test_power_of_two_exponent():
    assert power_of_two_exponent(Fraction(8)) == 3
    assert power_of_two_exponent(Fraction(1, 16)) == -4
    assert power_of_two_exponent(Fraction(1)) == 0
    assert power_of_two_exponent(Fraction(3)) is None
    assert power_of_two_exponent(Fraction(3, 4)) is None
    assert power_of_two_exponent(Fraction(0)) is None
    assert power_of_two_exponent(Fraction(-4)) is None


def test_log2_bracket_exact_on_powers():
    lo, hi = log2_bracket(Fraction(1, 8), 20)
    assert lo == hi == -3


def test_log2_bracket_contains_log2_exactly():
    # verify 2^lo <= r <= 2^hi by integer cross-multiplication at low precision
    for r in [Fraction(3), Fraction(5, 7), Fraction(41, 8), Fraction(1, 3)]:
        lo, hi = log2_bracket(r, precision_bits=6)
        assert hi - lo <= Fraction(1, 64)
        # 2^(a/64) <= r  <=>  2^a <= r^64
        a = lo * 64
        b = hi * 64
        assert a.denominator == 1 and b.denominator == 1
        r64 = r**64
        assert Fraction(2) ** int(a) <= r64 <= Fraction(2) ** int(b)
        lo20, hi20 = log2_bracket(r, 20)
        assert hi20 - lo20 <= Fraction(1, 1 << 20)


def test_log2_bracket_widens_its_working_precision_on_a_straddle(monkeypatch):
    """A first digit pass that straddles 2 is run again at twice the working precision."""
    real = rational._log2_fraction_bits
    works = []

    def straddle_once(p, q, nbits, work):
        works.append(work)
        return None if len(works) == 1 else real(p, q, nbits, work)

    expected = log2_bracket(Fraction(5, 7), 20)
    monkeypatch.setattr(rational, "_log2_fraction_bits", straddle_once)
    assert log2_bracket(Fraction(5, 7), 20) == expected
    assert len(works) == 2 and works[1] == 2 * works[0]


def test_a_digit_pass_that_straddles_two_returns_none():
    """log2(3/2) at 1 working bit: after the second squaring the interval [1, 5/2] holds 2, so no digit is sure."""
    assert rational._log2_fraction_bits(3, 2, 3, 1) is None
    assert rational._log2_fraction_bits(3, 2, 3, 16) == 0b100  # log2(3/2) = 0.100101...b


def test_ceil_mul_log2():
    assert ceil_mul_log2(100, Fraction(4)) == 200
    assert ceil_mul_log2(7, Fraction(1, 2)) == -7
    k = ceil_mul_log2(100, Fraction(3))
    assert 2**k >= 3**100 > 2 ** (k - 1)
    # huge coefficients stay exact on powers of two
    assert ceil_mul_log2(100 * (1 << 300), Fraction(1 << 20)) == 2000 * (1 << 300)


POSITIVE = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30))
POWERS = st.integers(-80, 80).map(lambda k: Fraction(2) ** k)
# within 2^-40 of a power of two, on either side: log2 sits just off an integer
NEAR_POWERS = st.builds(lambda k, d, sign: Fraction(2) ** k + sign * Fraction(d, 1 << 48),
                        st.integers(-30, 40), st.integers(1, 1 << 8), st.sampled_from([-1, 1]))
LOG2_ARGUMENTS = st.one_of(POSITIVE, POWERS, NEAR_POWERS)


@settings(max_examples=300, deadline=None)
@given(LOG2_ARGUMENTS, st.sampled_from([1, 6, 20, 33]))
def test_log2_bracket_matches_the_fraction_scaled_reference(r, precision):
    assert log2_bracket(r, precision) == reference_rational.log2_bracket(r, precision)


@settings(max_examples=300, deadline=None)
@given(LOG2_ARGUMENTS, st.sampled_from([1, 1, 1, 2, 3, 100]))
def test_ceil_mul_log2_matches_the_bracket_reference(r, c):
    """c = 1 reads the floor of log2 r directly; every c agrees with the bracket loop."""
    assert ceil_mul_log2(c, r) == reference_rational.ceil_mul_log2(c, r)


def test_floor_fourth_root():
    for x in [0, 1, 15, 16, 17, 80, 81, 82, 10**12]:
        r = floor_fourth_root(x)
        assert r**4 <= x < (r + 1) ** 4


def test_largest_fourth_power_at_most():
    for target in [Fraction(1, 4), Fraction(1, 9), Fraction(1, 3000 * 401**4)]:
        q, d = largest_fourth_power_at_most(target)
        assert q > 0 and d == q**4 and d <= target
        assert (2 * q) ** 4 >= target  # never more than a factor 2 below the root


@pytest.mark.parametrize("target", [Fraction(1, 3 << 128), Fraction(5, 1 << 200), Fraction(1, 1 << 300)])
def test_largest_fourth_power_at_most_refines_the_grid_below_2_to_the_minus_128(target):
    """Below 2**-128 the 2**-32 grid holds no positive q; q is the largest one on the first grid that does."""
    bits = 32
    while Fraction(1, 1 << bits) ** 4 > target:
        bits *= 2
    assert bits > 32
    q, d = largest_fourth_power_at_most(target)
    assert (q * (1 << bits)).denominator == 1
    assert 0 < d == q**4 <= target < (q + Fraction(1, 1 << bits)) ** 4


def majority_error(a: Fraction, votes: int) -> Fraction:
    """The chance that a majority of t votes is wrong, read off ``lower_tail`` as the boost reads it."""
    return Fraction(lower_tail(a.numerator, a.denominator - a.numerator, votes), a.denominator**votes)


def test_majority_error_small_cases():
    a = Fraction(3, 4)
    assert majority_error(a, 1) == Fraction(1, 4)
    # t=3: C(3,0) b^3 + C(3,1) a b^2
    expected = Fraction(1, 4) ** 3 + 3 * Fraction(3, 4) * Fraction(1, 4) ** 2
    assert majority_error(a, 3) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: log2_bracket(Fraction(0), 20), "log2 bracket requires a positive rational, got 0"),
        (lambda: ceil_mul_log2(0, Fraction(2)), "coefficient must be positive"),
        (lambda: ceil_mul_log2(1, Fraction(0)), "log2 requires a positive rational"),
        (lambda: floor_fourth_root(-1), "fourth root of a negative integer"),
        (lambda: largest_fourth_power_at_most(Fraction(0)), "target must be positive"),
        (lambda: min_odd_votes_for_error(Fraction(3, 2), Fraction(1, 8)),
         "correct mass must lie in [0,1], got 3/2"),
        # one unit weight on the whole of {0,1}: an exact-mass input, so the vote count is checked next
        (lambda: _cube_family(1).boost({(0, Subcube(1, 0, 0)): Fraction(1)}, (0, 1), 2),
         "vote count must be a positive odd integer, got 2"),
        (lambda: min_odd_votes_for_error(Fraction(1, 2), Fraction(1, 8)),
         "majority voting needs per-vote correct mass > 1/2"),
        (lambda: min_odd_votes_for_error(Fraction(3, 4), Fraction(0)),
         "no odd vote count up to 20001 reaches error 0"),
    ],
    ids=["log2-bracket", "coefficient", "log2", "fourth-root", "target", "correct-mass",
         "votes", "coin-flip", "unreachable"],
)
def test_rational_refuses_out_of_domain_input(call, message):
    assert_refuses(call, DimensionMismatchError, message)


def test_majority_error_monotone_in_votes():
    a = Fraction(7, 8)
    errs = [majority_error(a, t) for t in (1, 3, 5, 7, 9)]
    assert all(x > y for x, y in zip(errs, errs[1:]))


def test_min_odd_votes():
    a = Fraction(7, 8)
    target = Fraction(1, 1000)
    t = min_odd_votes_for_error(a, target)
    assert t % 2 == 1
    assert reference_majority_error(a, t) <= target
    if t > 1:
        assert reference_majority_error(a, t - 2) > target
    with pytest.raises(ValueError):
        min_odd_votes_for_error(Fraction(1, 2), target)


# Differential tests against the Fraction sum and the direct scan they replaced.

@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))),
    st.integers(0, 50).map(lambda h: 2 * h + 1),
)
def test_majority_error_matches_the_fraction_sum(a, t):
    assert majority_error(a, t) == reference_majority_error(a, t)


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_majority_error_matches_the_fraction_sum_at_the_ends(a):
    for t in range(1, 102, 2):
        assert majority_error(a, t) == reference_majority_error(a, t)


@pytest.mark.parametrize(
    ("a", "target", "votes"),
    [
        (Fraction(5, 8), Fraction(1, 15**8), 587),
        (Fraction(7, 8), Fraction(1, 64), 7),
        (Fraction(7, 8), Fraction(1, 9**8), 37),
        (Fraction(3, 4), Fraction(1, 4), 1),
        (Fraction(3, 4), Fraction(1, 5), 3),
        (Fraction(3, 5), Fraction(1, 10), 41),
        (Fraction(2, 3), Fraction(1, 1000), 81),
        (Fraction(11, 13), Fraction(3, 7**5), 19),
        (Fraction(1), Fraction(0), 1),
    ],
)
def test_min_odd_votes_matches_the_direct_scan(a, target, votes):
    assert min_odd_votes_for_error(a, target) == reference_min_odd_votes(a, target) == votes


def test_min_odd_votes_gives_up_after_20001():
    with pytest.raises(ValueError, match="^no odd vote count up to 20001 reaches error 0$"):
        min_odd_votes_for_error(Fraction(9, 10), Fraction(0))
