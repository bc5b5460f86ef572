"""The two brute-force searches as they were before they shared one search.

``oracle_cc`` and ``oracle_qc`` each had a memoised search of their own;
they are kept here verbatim, apart from their names and the one ``Leaf``
class that replaced ``PLeaf`` and ``DLeaf``, as the reference that
``tests/test_oracle.py`` compares the shared search against.  The
one-label ``measure`` and ``bit_measure`` they call are the old ones, kept
in ``tests/reference_model.py``.
"""

from __future__ import annotations

from fractions import Fraction

from lpbounds.errors import CapExceededError
from lpbounds.model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Rectangle,
    Subcube,
    TwoPartyFunction,
)
from lpbounds.oracle import (
    ORACLE_CC_MAX_DEPTH,
    ORACLE_CC_MAX_SIDE,
    ORACLE_QC_MAX_BITS,
    OracleResult,
    _proper_bipartitions,
)
from lpbounds.trees import DecisionTree, DNode, Leaf, PNode, ProtocolTree
from reference_model import bit_measure, measure


def reference_oracle_cc(
    f: TwoPartyFunction, mu: ProductDistribution2P, depth_budget: int
) -> OracleResult:
    """Exact minimum error over protocol trees of depth <= depth_budget."""
    if f.nx > ORACLE_CC_MAX_SIDE or f.ny > ORACLE_CC_MAX_SIDE:
        raise CapExceededError(
            f"protocol search capped at {ORACLE_CC_MAX_SIDE}x{ORACLE_CC_MAX_SIDE}"
        )
    if depth_budget > ORACLE_CC_MAX_DEPTH:
        raise CapExceededError(f"protocol search capped at depth {ORACLE_CC_MAX_DEPTH}")

    memo: dict[tuple[int, int, int], tuple[Fraction, ProtocolTree]] = {}

    def best(rows: int, cols: int, budget: int) -> tuple[Fraction, ProtocolTree]:
        key = (rows, cols, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        rect = Rectangle(rows, cols)
        m0 = measure(mu, f, 0, rect)
        m1 = measure(mu, f, 1, rect)
        err, tree = (m1, Leaf(0)) if m1 <= m0 else (m0, Leaf(1))
        if budget >= 1:
            for split in _proper_bipartitions(rows):
                e_in, t_in = best(split, cols, budget - 1)
                e_out, t_out = best(rows ^ split, cols, budget - 1)
                if e_in + e_out < err:
                    err = e_in + e_out
                    tree = PNode("A", split, t_in, t_out)
            for split in _proper_bipartitions(cols):
                e_in, t_in = best(rows, split, budget - 1)
                e_out, t_out = best(rows, cols ^ split, budget - 1)
                if e_in + e_out < err:
                    err = e_in + e_out
                    tree = PNode("B", split, t_in, t_out)
        memo[key] = (err, tree)
        return err, tree

    err, tree = best((1 << f.nx) - 1, (1 << f.ny) - 1, depth_budget)
    return OracleResult(err, tree)


def reference_oracle_qc(
    g: QueryFunction, mu: BitProductDistribution, depth_budget: int
) -> OracleResult:
    """Exact minimum error over decision trees of depth <= depth_budget."""
    if g.n > ORACLE_QC_MAX_BITS:
        raise CapExceededError(f"decision search capped at {ORACLE_QC_MAX_BITS} bits")

    memo: dict[tuple[int, int, int], tuple[Fraction, DecisionTree]] = {}

    def best(support: int, values: int, budget: int) -> tuple[Fraction, DecisionTree]:
        key = (support, values, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        cube = Subcube(g.n, support, values)
        m0 = bit_measure(mu, g, 0, cube)
        m1 = bit_measure(mu, g, 1, cube)
        err, tree = (m1, Leaf(0)) if m1 <= m0 else (m0, Leaf(1))
        if budget >= 1:
            for i in range(g.n):
                if (support >> i) & 1:
                    continue
                e0, t0 = best(support | (1 << i), values, budget - 1)
                e1, t1 = best(support | (1 << i), values | (1 << i), budget - 1)
                if e0 + e1 < err:
                    err = e0 + e1
                    tree = DNode(i, t0, t1)
        memo[key] = (err, tree)
        return err, tree

    err, tree = best(0, 0, depth_budget)
    return OracleResult(err, tree)
