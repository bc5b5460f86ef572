"""The t-fold majority product of ``LabelledFamily``, against ``reference_boost``.

``LabelledFamily._product`` is driven on the subcube families of {0,1}^n,
n <= 4, and on the rectangle family of the 4 x 4 grid, with arbitrary
non-negative weights: it needs no exact total mass, which only ``boost``
checks.  Counting and recording intersects go in through
``records.replace``, which makes a fresh family with its own layout.
"""

from fractions import Fraction as F
from math import comb

import pytest
from conftest import assert_refuses
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_boost import reference_boost

from lpbounds import qcbounds
from lpbounds.ccbounds import _rect_family
from lpbounds.errors import DimensionMismatchError
from lpbounds.model import Rectangle, Subcube
from lpbounds.rational import numerators
from lpbounds.records import replace

RECTS = _rect_family(4, 4)  # the rectangle families below live on the 4 x 4 grid

weights = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(0, 12), st.integers(1, 12)),
)


@st.composite
def subcube_families(draw):
    """Labelled subcubes of {0,1}^n, n <= 4, with their family; sparse ones fix almost every bit."""
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
    return qcbounds._cube_family(n), family


@st.composite
def rectangle_families(draw):
    """Labelled rectangles of the 4 x 4 grid, with their family; sparse ones are single cells."""
    sparse = draw(st.booleans())
    side = st.sampled_from([1, 2, 4, 8]) if sparse else st.integers(1, 15)
    family = {}
    for _ in range(draw(st.integers(1, 6))):
        rect = Rectangle(draw(side), draw(side))
        family[(draw(st.integers(0, 1)), rect)] = draw(weights)
    return RECTS, family


# small counts, and 21, 43, 45, 47 and 49, counts the synthesis pipelines boost with
votes = st.sampled_from([1, 3, 5, 7, 9, 21, 43, 45, 47, 49])


def product(family, weights, t):
    """``family``'s product of ``weights``: its raw elements, and the weights they give as Fractions."""
    den, nums = numerators(weights.values())
    pairs = {}
    for (z, k), num in zip(weights, nums):
        if num:
            pairs.setdefault(k, [0, 0])[z] += num
    elements = family._product(pairs, t)
    return elements, {(z, k): F(v[z], den**t) for z in (0, 1) for k, _, *v in elements if v[z]}


def assert_matches_reference(family, weights, t):
    elements, got = product(family, weights, t)
    assert got == reference_boost(weights, t, family.intersect, family._position.__getitem__)
    positions = [family._position[k] for k, *_ in elements]
    assert positions == sorted(set(positions))  # family order, each element once
    for k, points, v0, v1 in elements:
        assert points == sum(1 << i for i in family.cells(k))
        assert v0 >= 0 and v1 >= 0 and v0 + v1 > 0


@settings(max_examples=150, deadline=None)
@given(subcube_families(), votes)
def test_boost_matches_reference_on_subcubes(case, t):
    assert_matches_reference(*case, t)


@settings(max_examples=150, deadline=None)
@given(rectangle_families(), votes)
def test_boost_matches_reference_on_rectangles(case, t):
    assert_matches_reference(*case, t)


def test_boost_weighs_an_intersection_only_when_t_members_reach_it():
    """The four members x_i = 1 of {0,1}^4 meet in the point 1111 only all together.

    The closure holds 1111 at every t, but a t-tuple reaches it only when
    t >= 4, so t = 3 gives it no weight and t = 5 does.
    """
    family = qcbounds._cube_family(4)
    weights = {(1, Subcube(4, 1 << i, 1 << i)): F(1, 4) for i in range(4)}
    point = Subcube(4, 0b1111, 0b1111)
    assert (1, point) not in product(family, weights, 3)[1]
    assert product(family, weights, 5)[1][(1, point)] > 0
    for t in (3, 5):
        assert_matches_reference(family, weights, t)


def test_boost_intersections_do_not_grow_with_t():
    weights = {
        (z, Subcube(4, support, values)): F(1 + support + values, 40)
        for z, support, values in [(0, 0b0011, 0b0001), (1, 0b0110, 0b0110), (0, 0b1100, 0b0100),
                                   (1, 0b1001, 0b1000), (1, 0b0000, 0b0000)]
    }
    calls = []

    def counting_intersect(a, b):
        calls.append(1)
        return Subcube.intersect(a, b)

    family = replace(qcbounds._cube_family(4), intersect=counting_intersect)
    counts = []
    for t in (3, 47):
        calls.clear()
        product(family, weights, t)
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
@given(st.one_of(subcube_families(), rectangle_families()))
def test_boost_names_each_closure_element_outside_the_support_once(case):
    """The closure is built on point bitmasks; ``intersect`` only names what is new."""
    family, weights = case
    calls = []

    def recording_intersect(a, b):
        calls.append(family.intersect(a, b))
        return calls[-1]

    product(replace(family, intersect=recording_intersect), weights, 3)
    support = {k for (_, k), w in weights.items() if w}
    new = _closure(support, family.intersect) - support
    position = family._position.__getitem__
    assert sorted(calls, key=position) == sorted(new, key=position)


@pytest.mark.parametrize(
    "shape", [(n,) for n in range(1, 5)] + [(nx, ny) for nx in range(1, 5) for ny in range(1, 5)]
)
def test_members_are_their_point_sets(shape):
    """The product's closure premise: a member is its nonempty point set, and meets by AND."""
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
    weights = {(1, k): F(a, den), (0, k): F(b, den), (0, Subcube(2, 0b11, 0b11)): F(0)}
    ones = sum(comb(t, j) * a**j * b ** (t - j) for j in range(t // 2 + 1, t + 1))
    zeros = sum(comb(t, j) * a**j * b ** (t - j) for j in range(t // 2 + 1))
    got = product(qcbounds._cube_family(2), weights, t)[1]
    assert got == {(0, k): F(zeros, den**t), (1, k): F(ones, den**t)}


def test_boost_rejects_negative_weights():
    """Exact total mass 1 at both points of {0,1}, but from a negative weight."""
    k = Subcube(1, 0, 0)
    weights = {(0, k): F(3, 2), (1, k): F(-1, 2)}
    assert_refuses(lambda: qcbounds._cube_family(1).boost(weights, (0, 1), 3),
                   DimensionMismatchError, "majority product needs non-negative weights")
