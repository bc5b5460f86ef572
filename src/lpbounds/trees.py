"""Protocol trees and decision trees: the one module that knows the node layout.

Both are binary trees with 0/1 leaves.  At a ``PNode`` the speaker says
whether their input lies in ``split`` (``inside``) or not (``outside``);
at a ``DNode`` bit ``bit`` is queried (``child1`` if set, else
``child0``).  Both kinds share one ``Leaf`` and list their subtrees, in
file order, as ``children``, so one memoised walker serves both.  Errors
are measured by exhaustive evaluation, never by a construction's own
accounting: the weights of the inputs a tree gets wrong, summed against the
measure's integer point weights after its ``check_shape``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import DimensionMismatchError, ParseError
from .model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    TwoPartyFunction,
)
from .records import Record, set_field


class Leaf(Record):
    label: int
    children = ()

    def __init__(self, label: int) -> None:
        set_field(self, "label", label)


class PNode(Record):
    speaker: str  # "A" | "B"
    split: int  # bitmask over the speaker's indices; inside = membership
    inside: "ProtocolTree"
    outside: "ProtocolTree"

    def __init__(self, speaker: str, split: int, inside: "ProtocolTree", outside: "ProtocolTree") -> None:
        if speaker not in ("A", "B"):
            raise DimensionMismatchError(f"speaker must be A or B, got {speaker!r}")
        set_field(self, "speaker", speaker)
        set_field(self, "split", split)
        set_field(self, "inside", inside)
        set_field(self, "outside", outside)
        set_field(self, "children", (inside, outside))


class DNode(Record):
    bit: int
    child0: "DecisionTree"
    child1: "DecisionTree"

    def __init__(self, bit: int, child0: "DecisionTree", child1: "DecisionTree") -> None:
        set_field(self, "bit", bit)
        set_field(self, "child0", child0)
        set_field(self, "child1", child1)
        set_field(self, "children", (child0, child1))


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
    """Incorrect mass, by exhaustive evaluation: W summed over the cells where tree and f differ, over D."""
    mu.check_shape(f, None)
    den, weights = mu.point_weights
    return Fraction(sum(w for p, (w, label) in enumerate(zip(weights, f.labels))
                        if evaluate(tree, *divmod(p, f.ny)) != label), den)


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
    """Exact error mass Pr_mu[g(x) != tree(x)]: W summed over the points where tree and g differ, over D."""
    mu.check_shape(g, None)
    den, weights = mu.point_weights
    return Fraction(sum(w for x, (w, label) in enumerate(zip(weights, g.labels))
                        if dtree_evaluate(tree, x) != label), den)


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
