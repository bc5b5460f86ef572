"""Brute-force ground truth: optimal bounded-depth trees on tiny instances.

``oracle_cc`` minimizes exact distributional error over *all* deterministic
protocol trees of a given depth: at every node either party may speak, and
a speaker's message is an arbitrary bipartition of their active index set.
``oracle_qc`` does the same over decision trees.  Both are front ends of
one memoised search: each supplies its start state (rectangle masks /
subcube restriction), the region a state stands for and its moves, and the
search returns a witness tree that replays to exactly the optimal error.

The search adds and compares integers: a state's two label masses are
``mu.label_sums`` over its region, integers over the denominator D of the
measure's ``point_weights``, and only the optimum is divided by D, once.

These searches are exponential and exist to validate synthesized
artifacts, not to scale: caps are enforced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator

from .errors import CapExceededError, DimensionMismatchError
from .model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Rectangle,
    Subcube,
    TwoPartyFunction,
)
from .records import Record
from .trees import DNode, Leaf, PNode, Tree

ORACLE_CC_MAX_SIDE = 4
ORACLE_CC_MAX_DEPTH = 4
ORACLE_QC_MAX_BITS = 10

State = tuple[int, int]  # (rows, cols) masks, or a subcube's (support, values)
Move = tuple[Callable[[Tree, Tree], Tree], State, State]


class OracleResult(Record):
    best_error: Fraction
    witness: Tree


def _proper_bipartitions(mask: int):
    """Unordered bipartitions {S, mask\\S} of a mask, canonicalized.

    The side containing the lowest set bit is yielded, so each bipartition
    appears exactly once; masks with fewer than two elements yield nothing.
    """
    k = mask.bit_count()
    if k < 2:
        return
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    # nonempty complements only: skip sub == rest
    while True:
        sub = (sub - 1) & rest
        yield low | sub
        if sub == 0:
            return


def oracle_cc(
    f: TwoPartyFunction, mu: ProductDistribution2P, depth_budget: int
) -> OracleResult:
    """Exact minimum error over protocol trees of depth <= depth_budget."""
    if f.nx > ORACLE_CC_MAX_SIDE or f.ny > ORACLE_CC_MAX_SIDE:
        raise CapExceededError(
            f"protocol search capped at {ORACLE_CC_MAX_SIDE}x{ORACLE_CC_MAX_SIDE}"
        )
    if depth_budget > ORACLE_CC_MAX_DEPTH:
        raise CapExceededError(f"protocol search capped at depth {ORACLE_CC_MAX_DEPTH}")
    _check_depth(depth_budget)

    def moves(rows: int, cols: int) -> Iterator[Move]:
        for split in _proper_bipartitions(rows):
            yield partial(PNode, "A", split), (split, cols), (rows ^ split, cols)
        for split in _proper_bipartitions(cols):
            yield partial(PNode, "B", split), (rows, split), (rows, cols ^ split)

    return _search(mu, f, Rectangle, ((1 << f.nx) - 1, (1 << f.ny) - 1), moves, depth_budget)


def oracle_qc(
    g: QueryFunction, mu: BitProductDistribution, depth_budget: int
) -> OracleResult:
    """Exact minimum error over decision trees of depth <= depth_budget."""
    if g.n > ORACLE_QC_MAX_BITS:
        raise CapExceededError(f"decision search capped at {ORACLE_QC_MAX_BITS} bits")
    _check_depth(depth_budget)

    def moves(support: int, values: int) -> Iterator[Move]:
        for i in range(g.n):
            if not (support >> i) & 1:
                bit = 1 << i
                yield partial(DNode, i), (support | bit, values), (support | bit, values | bit)

    return _search(mu, g, partial(Subcube, g.n), (0, 0), moves, depth_budget)


def _check_depth(depth_budget: int) -> None:
    if depth_budget < 0:
        raise DimensionMismatchError(f"oracle depth must be >= 0, got {depth_budget}")


def _search(
    mu: ProductDistribution2P | BitProductDistribution,
    fn: TwoPartyFunction | QueryFunction,
    region: Callable[[int, int], Rectangle | Subcube],
    start: State,
    moves: Callable[[int, int], Iterator[Move]],
    depth_budget: int,
) -> OracleResult:
    """Minimum error over trees of depth <= depth_budget, memoised on (state, budget).

    ``region(*state)`` is the rectangle or subcube a state stands for.
    A leaf answers the label of larger mass (0 on a tie).  ``moves`` yields
    each node as its constructor awaiting two subtrees, with the states
    they start from; a move wins only when it errs strictly less.  So a
    move whose first subtree already errs >= the best error so far is not
    finished, and no move is tried once that error is 0: the pruned search
    returns the same (error, witness) for every (state, budget).
    """
    @cache  # a state's masses do not depend on the budget
    def masses(*state: int) -> tuple[int, int]:
        return mu.label_sums(fn, region(*state))

    memo: dict[tuple[int, int, int], tuple[int, Tree]] = {}

    def best(state: State, budget: int) -> tuple[int, Tree]:
        key = (*state, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        m0, m1 = masses(*state)
        err, tree = (m1, Leaf(0)) if m1 <= m0 else (m0, Leaf(1))
        if budget >= 1 and err:
            for node, first, second in moves(*state):
                e_first, t_first = best(first, budget - 1)
                if e_first >= err:  # errors are >= 0: the move cannot err strictly less
                    continue
                e_second, t_second = best(second, budget - 1)
                if e_first + e_second < err:
                    err = e_first + e_second
                    tree = node(t_first, t_second)
                    if not err:
                        break
        memo[key] = (err, tree)
        return err, tree

    err, tree = best(start, depth_budget)
    return OracleResult(Fraction(err, mu.point_weights[0]), tree)
