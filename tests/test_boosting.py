from fractions import Fraction as F
from math import comb

import pytest
from conftest import assert_refuses
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_boost import reference_boost

from lpbounds import qcbounds
from lpbounds.boosting import majority_product_boost
from lpbounds.ccbounds import _rect_family
from lpbounds.ccbounds import _rect_intersect as rect_intersect
from lpbounds.errors import DimensionMismatchError
from lpbounds.model import Rectangle, Subcube, cube_key

cube_intersect = Subcube.intersect
cube_cells = Subcube.members
rect_cells = _rect_family(4, 4).cells  # the families below live on the 4 x 4 grid


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


# small counts, and 21, 43, 45, 47 and 49, counts the synthesis pipelines boost with
votes = st.sampled_from([1, 3, 5, 7, 9, 21, 43, 45, 47, 49])


def assert_matches_reference(family, t, cells, intersect, key):
    got = majority_product_boost(family, t, cells, intersect, key)
    assert got == reference_boost(family, t, intersect, key)
    assert list(got) == sorted(got, key=lambda zk: (zk[0], key(zk[1])))
    assert all(w > 0 for w in got.values())


@settings(max_examples=150, deadline=None)
@given(subcube_families(), votes)
def test_boost_matches_reference_on_subcubes(family, t):
    assert_matches_reference(family, t, cube_cells, cube_intersect, cube_key)


@settings(max_examples=150, deadline=None)
@given(rectangle_families(), votes)
def test_boost_matches_reference_on_rectangles(family, t):
    assert_matches_reference(family, t, rect_cells, rect_intersect, rect_key)


def test_boost_weighs_an_intersection_only_when_t_members_reach_it():
    """The four members x_i = 1 of {0,1}^4 meet in the point 1111 only all together.

    The closure holds 1111 at every t, but a t-tuple reaches it only when
    t >= 4, so t = 3 gives it no weight and t = 5 does.
    """
    family = {(1, Subcube(4, 1 << i, 1 << i)): F(1, 4) for i in range(4)}
    point = Subcube(4, 0b1111, 0b1111)
    assert (1, point) not in majority_product_boost(family, 3, cube_cells, cube_intersect, cube_key)
    assert majority_product_boost(family, 5, cube_cells, cube_intersect, cube_key)[(1, point)] > 0
    for t in (3, 5):
        assert_matches_reference(family, t, cube_cells, cube_intersect, cube_key)


def test_boost_intersections_do_not_grow_with_t():
    family = {
        (z, Subcube(4, support, values)): F(1 + support + values, 40)
        for z, support, values in [(0, 0b0011, 0b0001), (1, 0b0110, 0b0110), (0, 0b1100, 0b0100),
                                   (1, 0b1001, 0b1000), (1, 0b0000, 0b0000)]
    }
    calls = []

    def counting_intersect(a, b):
        calls.append(1)
        return cube_intersect(a, b)

    counts = []
    for t in (3, 47):
        calls.clear()
        majority_product_boost(family, t, cube_cells, counting_intersect, cube_key)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _closure(members, intersect):
    """The nonempty intersections of the members, by ``intersect`` alone, to a fixed point."""
    closure, frontier = set(members), list(members)
    while frontier:
        found = {m for c in frontier for k in members if (m := intersect(c, k)) is not None}
        frontier = list(found - closure)
        closure |= found
    return closure


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    subcube_families().map(lambda f: (f, cube_cells, cube_intersect, cube_key)),
    rectangle_families().map(lambda f: (f, rect_cells, rect_intersect, rect_key)),
))
def test_boost_names_each_closure_element_outside_the_support_once(case):
    """The closure is built on point bitmasks; ``intersect`` only names what is new."""
    family, cells, intersect, key = case
    calls = []

    def recording_intersect(a, b):
        calls.append(intersect(a, b))
        return calls[-1]

    majority_product_boost(family, 3, cells, recording_intersect, key)
    support = {k for (_, k), w in family.items() if w}
    new = _closure(support, intersect) - support
    assert sorted(calls, key=key) == sorted(new, key=key)


@pytest.mark.parametrize(
    "shape", [(n,) for n in range(1, 5)] + [(nx, ny) for nx in range(1, 5) for ny in range(1, 5)]
)
def test_members_are_their_point_sets(shape):
    """The boost's closure premise: a member is its nonempty point set, and meets by AND."""
    family = qcbounds._cube_family(*shape) if len(shape) == 1 else _rect_family(*shape)
    masks = {member: sum(1 << i for i in family.cells(member)) for member in family.members}
    assert 0 not in masks.values()
    assert len(set(masks.values())) == len(masks)
    for a in family.members:
        for b in family.members:
            c = family.intersect(a, b)
            assert masks[a] & masks[b] == (0 if c is None else masks[c])


def test_boost_splits_large_numerators_exactly_by_majority_label():
    """Numerators that sum to 2^61 - 1 make t * 61-bit vote counts.

    On a single member every tuple intersects to it, so the product is the
    binomial split of (a + b)^t by majority label: the label-0 tail and its
    complement, each exact to the last of its t * 61 bits.
    """
    t = 9
    den = 1 << 61
    a, b = den - 2, 1
    k = Subcube(2, 0b01, 0b01)
    family = {(1, k): F(a, den), (0, k): F(b, den), (0, Subcube(2, 0b11, 0b11)): F(0)}
    ones = sum(comb(t, j) * a**j * b ** (t - j) for j in range(t // 2 + 1, t + 1))
    zeros = sum(comb(t, j) * a**j * b ** (t - j) for j in range(t // 2 + 1))
    got = majority_product_boost(family, t, cube_cells, cube_intersect, cube_key)
    assert got == {(0, k): F(zeros, den**t), (1, k): F(ones, den**t)}


def test_boost_rejects_negative_weights():
    k = Subcube(1, 0, 0)
    family = {(0, k): F(3, 2), (1, k): F(-1, 2)}
    assert_refuses(lambda: majority_product_boost(family, 3, cube_cells, cube_intersect, cube_key),
                   DimensionMismatchError, "majority product needs non-negative weights")
