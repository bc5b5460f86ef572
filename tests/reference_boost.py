"""Reference majority product and vote math for differential tests.

``reference_boost`` is the first dynamic program of the majority product,
since moved into ``lpbounds.partition.LabelledFamily``: every one of its
t - 1 rounds walks every (votes-for-1, running intersection) state against
every support entry and calls ``intersect`` each time.  Two successors are
retired too: one interned the intersections and packed the vote counts
into one integer per state but still ran t - 1 rounds; the next raised one
packed integer (a + b * 2^width per member) to the power t per closure
element, read the two majority labels off it modulo 2^width - 1, and
called ``intersect`` on every (closure element, member) pair.
``LabelledFamily._product`` now sums two integers per closure element,
takes a binomial tail of them and Moebius-inverts, on a closure built by
ANDing point bitmasks.  All of them sum the same tuples in exact integers,
so on every input ``reference_boost`` and the product must give equal
weights.

``reference_majority_error`` is the binomial tail as
``lpbounds.rational.majority_error`` summed it in Fractions before it
summed integers over q**t; the package now reads the tail off
``rational.lower_tail`` alone, in integers.  ``reference_min_odd_votes``
is the direct scan that evaluated one whole tail per odd vote count before
the two-step walk.  All three are slow and only used by tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)


def reference_boost(
    weights: dict[tuple[int, K], Fraction],
    t: int,
    intersect: Callable[[K, K], K | None],
    sort_key: Callable[[K], object],
) -> dict[tuple[int, K], Fraction]:
    """t-fold majority product of a labeled weight family; t must be odd.

    ``intersect`` returns None for an empty intersection.  t = 1 returns
    the (nonzero entries of the) input unchanged.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"vote count must be a positive odd integer, got {t}")
    entries = [
        (z, k, Fraction(w))
        for (z, k), w in sorted(weights.items(), key=lambda zw: (zw[0][0], sort_key(zw[0][1])))
        if w != 0
    ]
    if t == 1:
        return {(z, k): w for z, k, w in entries}

    den = 1
    for _, _, w in entries:
        den = den * w.denominator // math.gcd(den, w.denominator)
    int_entries = [(z, k, w.numerator * (den // w.denominator)) for z, k, w in entries]

    state: dict[tuple[int, K], int] = {}
    for z, k, num in int_entries:
        key = (z, k)
        state[key] = state.get(key, 0) + num
    for _ in range(t - 1):
        nxt: dict[tuple[int, K], int] = {}
        for (ones, k), val in state.items():
            for z, k2, num in int_entries:
                merged = intersect(k, k2)
                if merged is None:
                    continue
                key = (ones + z, merged)
                nxt[key] = nxt.get(key, 0) + val * num
        state = nxt

    scale = den**t
    out: dict[tuple[int, K], Fraction] = {}
    for (ones, k), val in state.items():
        z = 1 if 2 * ones > t else 0
        key = (z, k)
        out[key] = out.get(key, Fraction(0)) + Fraction(val, scale)
    return {key: w for key, w in out.items() if w != 0}


def reference_majority_error(correct_mass: Fraction, votes: int) -> Fraction:
    """The sum over j <= floor(t/2) of C(t,j) * a**j * (1-a)**(t-j), in Fractions."""
    a = Fraction(correct_mass)
    b = 1 - a
    total = Fraction(0)
    for j in range(votes // 2 + 1):
        total += math.comb(votes, j) * a**j * b ** (votes - j)
    return total


def reference_min_odd_votes(correct_mass: Fraction, target: Fraction) -> int:
    """Smallest odd t <= 20001 with reference_majority_error <= target."""
    for t in range(1, 20002, 2):
        if reference_majority_error(correct_mass, t) <= target:
            return t
    raise ValueError(f"no odd vote count up to 20001 reaches error {target}")
