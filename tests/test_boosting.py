from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_boost import reference_boost

from lpbounds.boosting import majority_product_boost
from lpbounds.ccbounds import _rect_intersect as rect_intersect
from lpbounds.model import Rectangle, Subcube
from lpbounds.qcbounds import _cube_key as cube_key

cube_intersect = Subcube.intersect


def rect_key(r: Rectangle):
    return (r.rows, r.cols)


weights = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(0, 12), st.integers(1, 12)),
)


@st.composite
def subcube_families(draw):
    """Labelled subcubes of {0,1}^n, n <= 4; sparse ones fix almost every bit."""
    n = draw(st.integers(1, 4))
    full = (1 << n) - 1
    sparse = draw(st.booleans())
    family = {}
    for _ in range(draw(st.integers(1, 6))):
        support = draw(st.integers(0, full))
        if sparse:
            support |= full & ~(1 << draw(st.integers(0, n)))
        values = draw(st.integers(0, full)) & support
        family[(draw(st.integers(0, 1)), Subcube(n, support, values))] = draw(weights)
    return family


@st.composite
def rectangle_families(draw):
    """Labelled rectangles of the 4 x 4 grid; sparse ones are single cells."""
    sparse = draw(st.booleans())
    side = st.sampled_from([1, 2, 4, 8]) if sparse else st.integers(1, 15)
    family = {}
    for _ in range(draw(st.integers(1, 6))):
        rect = Rectangle(draw(side), draw(side))
        family[(draw(st.integers(0, 1)), rect)] = draw(weights)
    return family


votes = st.sampled_from([1, 3, 5, 7, 9])


def assert_matches_reference(family, t, intersect, key):
    got = majority_product_boost(family, t, intersect, key)
    assert got == reference_boost(family, t, intersect, key)
    assert list(got) == sorted(got, key=lambda zk: (zk[0], key(zk[1])))
    assert all(w > 0 for w in got.values())


@settings(max_examples=150, deadline=None)
@given(subcube_families(), votes)
def test_boost_matches_reference_on_subcubes(family, t):
    assert_matches_reference(family, t, cube_intersect, cube_key)


@settings(max_examples=150, deadline=None)
@given(rectangle_families(), votes)
def test_boost_matches_reference_on_rectangles(family, t):
    assert_matches_reference(family, t, rect_intersect, rect_key)


def test_boost_slot_width_holds_the_largest_vote_counts():
    """Numerators that sum to 2^61 - 1 fill t * 61 bits of one vote slot.

    On a single member every tuple intersects to it, so the product is the
    binomial split of (a + b)^t by majority label.  A slot narrower than
    about t * 61 bits carries into its neighbour and moves weight across
    the split.
    """
    t = 9
    den = 1 << 61
    a, b = den - 2, 1
    k = Subcube(2, 0b01, 0b01)
    family = {(1, k): F(a, den), (0, k): F(b, den), (0, Subcube(2, 0b11, 0b11)): F(0)}
    ones = sum(comb(t, j) * a**j * b ** (t - j) for j in range(t // 2 + 1, t + 1))
    zeros = sum(comb(t, j) * a**j * b ** (t - j) for j in range(t // 2 + 1))
    got = majority_product_boost(family, t, cube_intersect, cube_key)
    assert got == {(0, k): F(zeros, den**t), (1, k): F(ones, den**t)}


def test_boost_rejects_negative_weights():
    k = Subcube(1, 0, 0)
    with pytest.raises(ValueError):
        majority_product_boost({(0, k): F(3, 2), (1, k): F(-1, 2)}, 3, cube_intersect, cube_key)
