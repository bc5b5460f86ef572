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
denominator.  The votes-for-1 axis is packed into one integer (Kronecker
substitution): member k's step is a_k + b_k * 2^width, its label-0 and
label-1 numerators, and the count for j votes for 1 sits in bit slot j of
``width`` bits.  The intersection closure of the support is interned, and
each closure element c records ``mask[c]``, the members that contain it.
The t-tuples whose members all contain c are counted by one power,
G(c) = (sum of the steps in mask[c]) ** t.  Their intersection is c or a
closure element inside c, whose mask is a strict subset of mask[c], so
Moebius inversion over the closure, in increasing mask size, leaves the
tuples that intersect to exactly c:

    v(c) = G(c) - sum of v(c') over mask[c'] strictly inside mask[c].

The cost is O(closure * support) calls to ``intersect``, one power per
closure element and a pass over the pairs of closure elements; no term
grows with t except the size of the integers, O(t^2 * bits) bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, TypeVar

from .rational import numerators

K = TypeVar("K", bound=Hashable)

__all__ = ["majority_product_boost"]


def majority_product_boost(
    weights: dict[tuple[int, K], Fraction],
    t: int,
    intersect: Callable[[K, K], K | None],
    sort_key: Callable[[K], object],
) -> dict[tuple[int, K], Fraction]:
    """t-fold majority product of a labeled weight family; t must be odd.

    ``intersect`` returns None for an empty intersection.  t = 1 returns
    the (nonzero entries of the) input unchanged.  The result lists its
    nonzero entries in ``(z, sort_key(K))`` order.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"vote count must be a positive odd integer, got {t}")
    entries = [
        (z, k, Fraction(w))
        for (z, k), w in sorted(weights.items(), key=lambda zw: (zw[0][0], sort_key(zw[0][1])))
        if w != 0
    ]
    if any(w < 0 for _, _, w in entries):
        raise ValueError("majority product needs non-negative weights")
    if t == 1:
        return {(z, k): w for z, k, w in entries}

    den, nums = numerators(w for _, _, w in entries)
    # The slots of every G(c) sum to at most (sum of numerators)**t, which
    # fits in t * bitlen bits: no slot carries into its neighbour, and the
    # spare bit keeps every digit sum below 2^width - 1 (read-off below).
    width = t * sum(nums).bit_length() + 1
    step: dict[K, int] = {}
    for (z, k, _), num in zip(entries, nums):
        step[k] = step.get(k, 0) + (num << (width * z))

    # The closure, members first; c cap k = m puts k into mask[m], and
    # c = m finds every member containing m.  ``keys`` grows as it is read.
    members, steps = list(step), list(step.values())
    keys: list[K] = list(members)
    ids: dict[K, int] = {k: i for i, k in enumerate(keys)}
    masks = [0] * len(keys)
    for c in keys:
        for bit, k in enumerate(members):
            m = intersect(c, k)
            if m is None:
                continue
            i = ids.get(m)
            if i is None:
                i = ids[m] = len(keys)
                keys.append(m)
                masks.append(0)
            masks[i] |= 1 << bit

    # Slots 0 .. t//2 carry majority label 0, the rest label 1.  A sum of
    # base-2^width digits equals the number mod 2^width - 1, and is below
    # that modulus here, so it is read off with one reduction.
    split = width * (t // 2 + 1)
    digits = (1 << width) - 1
    scale = den**t
    inside: list[tuple[int, int]] = []  # (mask, v) of the nonzero v read so far
    out = []
    for i in sorted(range(len(keys)), key=lambda i: masks[i].bit_count()):
        mask = masks[i]
        val = sum(s for bit, s in enumerate(steps) if mask >> bit & 1) ** t
        val -= sum(v for sub, v in inside if sub & mask == sub)
        if not val:
            continue
        inside.append((mask, val))
        for z, packed in ((0, val & ((1 << split) - 1)), (1, val >> split)):
            total = packed % digits
            if total:
                out.append(((z, keys[i]), Fraction(total, scale)))
    out.sort(key=lambda kw: (kw[0][0], sort_key(kw[0][1])))
    return dict(out)
