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

The sum is a dynamic program over running intersections, in exact integer
numerators over a common denominator.  Each member of the intersection
closure reached by the program is interned as an integer id, and its merge
row (the ids it reaches by one more vote, with their summed multipliers)
is built once, on first use.  The votes-for-1 axis is packed into one
integer per id (Kronecker substitution): the count for j votes for 1 sits
in bit slot j of ``width`` bits, so adding a vote is one big-integer
multiply-add per (id, target) pair.  The cost is
O(closure * support) calls to ``intersect`` plus
O(t * closure * row length) multiply-adds on integers of O(t^2 * bits)
bits, instead of O(t^2 * closure * support) intersections.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Hashable, TypeVar

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

    den = math.lcm(*(w.denominator for _, _, w in entries))
    nums = [(z, k, w.numerator * (den // w.denominator)) for z, k, w in entries]
    # All slots of all states sum to at most (sum of numerators)**t, which
    # fits in t * bitlen bits: no slot carries into its neighbour, and the
    # spare bit keeps every digit sum below 2^width - 1 (read-off below).
    width = t * sum(num for _, _, num in nums).bit_length() + 1
    step: dict[K, int] = {}
    for z, k, num in nums:
        step[k] = step.get(k, 0) + (num << (width * z))

    keys: list[K] = list(step)
    ids: dict[K, int] = {k: i for i, k in enumerate(keys)}
    rows: dict[int, list[tuple[int, int]]] = {}

    def merge_row(i: int) -> list[tuple[int, int]]:
        row: dict[int, int] = {}
        for k2, mult in step.items():
            merged = intersect(keys[i], k2)
            if merged is None:
                continue
            j = ids.get(merged)
            if j is None:
                j = ids[merged] = len(keys)
                keys.append(merged)
            row[j] = row.get(j, 0) + mult
        return list(row.items())

    state = {ids[k]: mult for k, mult in step.items()}
    for _ in range(t - 1):
        nxt: dict[int, int] = {}
        for i, val in state.items():
            row = rows.get(i)
            if row is None:
                row = rows[i] = merge_row(i)
            for j, mult in row:
                nxt[j] = nxt.get(j, 0) + val * mult
        state = nxt

    # Slots 0 .. t//2 carry majority label 0, the rest label 1.  A sum of
    # base-2^width digits equals the number mod 2^width - 1, and is below
    # that modulus here, so it is read off with one reduction.
    split = width * (t // 2 + 1)
    digits = (1 << width) - 1
    scale = den**t
    out = []
    for i, val in state.items():
        for z, packed in ((0, val & ((1 << split) - 1)), (1, val >> split)):
            total = packed % digits
            if total:
                out.append(((z, keys[i]), Fraction(total, scale)))
    out.sort(key=lambda kw: (kw[0][0], sort_key(kw[0][1])))
    return dict(out)
