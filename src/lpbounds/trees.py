"""Protocol trees and decision trees: the one module that knows the node layout.

Both are binary trees with 0/1 leaves.  At a ``PNode`` the speaker says
whether their input lies in ``split`` (``inside``) or not (``outside``);
at a ``DNode`` bit ``bit`` is queried (``child1`` if set, else
``child0``).  Both kinds share one ``Leaf`` and list their subtrees, in
file order, as ``children``, so one memoised walker serves both.  Errors
are measured by exhaustive evaluation, never by a construction's own
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DimensionMismatchError, ParseError
from .model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    TwoPartyFunction,
)


@dataclass(frozen=True)
class Leaf:
    label: int
    children = ()


@dataclass(frozen=True)
class PNode:
    speaker: str  # "A" | "B"
    split: int  # bitmask over the speaker's indices; inside = membership
    inside: "ProtocolTree"
    outside: "ProtocolTree"

    def __post_init__(self) -> None:
        if self.speaker not in ("A", "B"):
            raise DimensionMismatchError(f"speaker must be A or B, got {self.speaker!r}")

    @property
    def children(self) -> tuple["ProtocolTree", "ProtocolTree"]:
        return self.inside, self.outside


@dataclass(frozen=True)
class DNode:
    bit: int
    child0: "DecisionTree"
    child1: "DecisionTree"

    @property
    def children(self) -> tuple["DecisionTree", "DecisionTree"]:
        return self.child0, self.child1


ProtocolTree = Leaf | PNode
DecisionTree = Leaf | DNode
Tree = ProtocolTree | DecisionTree


def _fold(tree: Tree, at_leaf: int, combine: Callable[[int, int], int]) -> int:
    """``combine`` applied bottom-up; a subtree shared by identity is walked once."""
    cache: dict[int, int] = {}

    def go(node: Tree) -> int:
        if isinstance(node, Leaf):
            return at_leaf
        hit = cache.get(id(node))
        if hit is None:
            first, second = node.children
            hit = combine(go(first), go(second))
            cache[id(node)] = hit
        return hit

    return go(tree)


def leaf_count(tree: Tree) -> int:
    """Number of leaves; shared subtrees count once per occurrence."""
    return _fold(tree, 1, lambda a, b: a + b)


def tree_depth(tree: Tree) -> int:
    """Edges on the longest root-to-leaf path."""
    return _fold(tree, 0, lambda a, b: 1 + max(a, b))


def check_fits(tree: Tree, fn: TwoPartyFunction | QueryFunction) -> None:
    """An artifact may only ask for coordinates the function has."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, DNode):
            if node.bit >= fn.n:
                raise ParseError(
                    f"decision tree queries bit {node.bit} of a {fn.n}-bit function"
                )
        elif isinstance(node, PNode):
            size = fn.nx if node.speaker == "A" else fn.ny
            if node.split >> size:
                raise ParseError(
                    f"protocol tree splits {node.speaker} on {node.split:x}, "
                    f"beyond its {size} inputs"
                )
        stack += node.children


# ---------------------------------------------------------------------------
# protocol trees


def evaluate(tree: ProtocolTree, x: int, y: int) -> int:
    node = tree
    while isinstance(node, PNode):
        coord = x if node.speaker == "A" else y
        node = node.inside if (node.split >> coord) & 1 else node.outside
    return node.label


def protocol_error(
    tree: ProtocolTree, f: TwoPartyFunction, mu: ProductDistribution2P
) -> Fraction:
    """Incorrect mass, by exhaustive evaluation."""
    if mu.nx != f.nx or mu.ny != f.ny:
        raise DimensionMismatchError("measure shape does not match function")
    total = Fraction(0)
    for x in range(f.nx):
        rw = mu.row_weights[x]
        if rw == 0:
            continue
        for y in range(f.ny):
            if evaluate(tree, x, y) != f.value(x, y):
                total += rw * mu.col_weights[y]
    return total


def advantage(
    tree: ProtocolTree, f: TwoPartyFunction, mu: ProductDistribution2P
) -> Fraction:
    """Correct mass minus incorrect mass, by exhaustive evaluation."""
    return mu.total - 2 * protocol_error(tree, f, mu)


# ---------------------------------------------------------------------------
# decision trees


def dtree_evaluate(tree: DecisionTree, x: int) -> int:
    node = tree
    while isinstance(node, DNode):
        node = node.child1 if (x >> node.bit) & 1 else node.child0
    return node.label


def dtree_error(
    tree: DecisionTree, g: QueryFunction, mu: BitProductDistribution
) -> Fraction:
    """Exact error mass Pr_mu[g(x) != tree(x)], by full enumeration."""
    if mu.n != g.n:
        raise DimensionMismatchError("measure and function bit counts differ")
    total = Fraction(0)
    for x in range(1 << g.n):
        if dtree_evaluate(tree, x) != g.value(x):
            total += mu.point(x)
    return total


def dtree_queried_bits_ok(tree: DecisionTree) -> bool:
    """True iff no root-to-leaf path queries the same bit twice."""

    def ok(node: DecisionTree, seen: int) -> bool:
        if isinstance(node, Leaf):
            return True
        if (seen >> node.bit) & 1:
            return False
        seen |= 1 << node.bit
        return ok(node.child0, seen) and ok(node.child1, seen)

    return ok(tree, 0)
