"""Majority-vote product construction for error reduction of LP solutions.

Given a labeled weight family w[(z, K)] over an intersection-closed ground
family (rectangles or subcubes) whose per-point label masses sum to 1, the
t-fold product assigns

    v[(z, K)] = sum over t-tuples ((z_1,K_1),..,(z_t,K_t))
                with majority label z and K_1 cap .. cap K_t = K
                of  prod_i w[(z_i, K_i)]

Tuples with an empty intersection are dropped: they contribute to no
point's constraint, and dropping them only lowers the objective.  Weights
must be non-negative.

The sum has a closed form, in exact integer numerators over a common
denominator.  Member k of the support carries a pair (a_k, b_k), its
label-0 and label-1 numerators.  The intersection closure of the support
is built on point sets: each member's points are read once as an int
bitmask, two sets meet in ``a & b``, and closure elements are interned by
bitmask, so ``intersect`` only names an element the first time it
appears.  That is sound because distinct nonempty subcubes, and distinct
nonempty rectangles, have distinct point sets.  Each closure element c
records ``mask[c]``, the members that contain it.

The t-tuples whose members all contain c are counted by sums over
mask[c]: with A and B the sums of the a_k and the b_k there, those with
majority label 0 number G0(c) = sum over j <= t//2 of C(t,j) A^(t-j) B^j
(``rational.lower_tail``, summed by Horner), and the rest
G1(c) = (A + B)^t - G0(c).  Their intersection is c or a closure element
strictly containing c, whose mask is a strict subset of mask[c], so
Moebius inversion over the closure, in increasing mask size, leaves for
each label the tuples that intersect to exactly c:

    v(c) = G(c) - sum of v(c') over mask[c'] strictly inside mask[c].

The cost is O(closure * support) ANDs of point bitmasks, one ``intersect``
per closure element outside the support, two scalar tails per closure
element and a pass over the pairs of closure elements.  Only the sizes of
the integers grow with t, as O(t * bits) bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, TypeVar

from .errors import DimensionMismatchError
from .rational import check_votes, lower_tail, numerators

K = TypeVar("K", bound=Hashable)

__all__ = ["majority_product_boost"]


def majority_product_boost(
    weights: dict[tuple[int, K], Fraction],
    t: int,
    cells: Callable[[K], Iterable[int]],
    intersect: Callable[[K, K], K | None],
    sort_key: Callable[[K], object],
) -> dict[tuple[int, K], Fraction]:
    """t-fold majority product of a labeled weight family; t must be odd.

    ``cells`` gives the indices of the points a member contains; members
    must have nonempty point sets, distinct ones for distinct members.
    ``intersect`` returns None for an empty intersection.  t = 1 returns
    the (nonzero entries of the) input unchanged.  The result lists its
    nonzero entries in ``(z, sort_key(K))`` order.
    """
    check_votes(t)
    entries = [
        (z, k, Fraction(w))
        for (z, k), w in sorted(weights.items(), key=lambda zw: (zw[0][0], sort_key(zw[0][1])))
        if w != 0
    ]
    if any(w < 0 for _, _, w in entries):
        raise DimensionMismatchError("majority product needs non-negative weights")
    if t == 1:
        return {(z, k): w for z, k, w in entries}

    den, nums = numerators(w for _, _, w in entries)
    pairs: dict[K, list[int]] = {}
    for (z, k, _), num in zip(entries, nums):
        pairs.setdefault(k, [0, 0])[z] += num

    # The closure on point bitmasks, members first; c & k = m puts k into
    # mask[m], and c = m finds every member containing m.  ``points`` grows
    # as it is read, and ``intersect`` names each new point set once.
    members = list(pairs)
    member_points = [sum(1 << i for i in cells(k)) for k in members]
    keys: list[K] = list(members)
    points = list(member_points)
    ids = {p: i for i, p in enumerate(points)}
    masks = [0] * len(keys)
    for c, cp in enumerate(points):
        for bit, kp in enumerate(member_points):
            m = cp & kp
            if not m:
                continue
            i = ids.get(m)
            if i is None:
                i = ids[m] = len(keys)
                keys.append(intersect(keys[c], members[bit]))
                points.append(m)
                masks.append(0)
            masks[i] |= 1 << bit

    scale = den**t
    steps = list(pairs.values())
    inside: list[tuple[int, int, int]] = []  # (mask, v0, v1) of the nonzero v read so far
    out = []
    for i in sorted(range(len(keys)), key=lambda i: masks[i].bit_count()):
        mask = masks[i]
        a, b = map(sum, zip(*(steps[bit] for bit in _bits(mask))))
        v0 = lower_tail(b, a, t)
        v1 = (a + b) ** t - v0
        for sub, s0, s1 in inside:
            if sub & mask == sub:
                v0 -= s0
                v1 -= s1
        if not v0 and not v1:
            continue
        inside.append((mask, v0, v1))
        out += [((z, keys[i]), Fraction(v, scale)) for z, v in ((0, v0), (1, v1)) if v]
    out.sort(key=lambda kw: (kw[0][0], sort_key(kw[0][1])))
    return dict(out)


def _bits(mask: int) -> Iterable[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
