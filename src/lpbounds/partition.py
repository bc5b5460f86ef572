"""The labelled partition LP behind prt, rprt and qprt, and its verified boost.

One side of the paper is a ``LabelledFamily``: a set of points p, each with
a label z(p) in {0,1}, and an intersection-closed family of members K
(rectangles or subcubes), each with a cost c(K).  Its partition LP has one
weight per label and member:

    min  sum_z sum_K c(K) * w_{z,K}
    sum_{K ni p} w_{z(p),K} >= 1 - eps        for every point p  (covering)
    sum_{K ni p} sum_z w_{z,K} = 1            for every point p  (total mass)
    w >= 0

The partition bound prt (Jain & Klauck, CCC 2010) takes the nonempty
rectangles of X x Y at cost 1; the relaxed partition bound rprt weakens
the total-mass rows to <= 1; the query partition bound qprt takes the
subcubes A of {0,1}^n at cost 2^|A|.  Variables are named
``w<z>_<member tag>`` in member order, label 0 first, and the rows
``cov_<point tag>`` then ``mass_<point tag>`` in point order.  Cached
solutions and Bland pivot paths depend on these names and orders.

Both proofs lower the error by a t-fold majority vote over the solution
(``boosting.majority_product_boost``).  ``LabelledFamily.boost`` runs it
on an exact-total-mass solution and re-verifies every guarantee exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Generic, Hashable, Iterable, TypeVar

from .boosting import majority_product_boost
from .errors import DimensionMismatchError, InfeasibleConstructionError
from .lp import LinearProgram, Row, scaled_row, unit_row
from .rational import format_rational, majority_error

P = TypeVar("P")
K = TypeVar("K", bound=Hashable)

LabelledWeights = dict[tuple[int, K], Fraction]

_ONE = Fraction(1)


def check_unit_interval(name: str, value: Fraction) -> None:
    """Error parameters are probabilities; anything outside [0,1] is rejected."""
    if not 0 <= value <= 1:
        raise DimensionMismatchError(f"{name} must lie in [0,1], got {format_rational(value)}")


@dataclass(frozen=True)
class BoostResult(Generic[K]):
    """A verified t-fold majority product.

    ``achieved_error`` is the exact worst-case per-point error: the largest
    binomial tail at a point's input correct mass.
    """

    weights: LabelledWeights
    votes: int
    achieved_error: Fraction
    objective: Fraction


@dataclass(frozen=True)
class LabelledFamily(Generic[P, K]):
    """Labelled points and an intersection-closed family of members.

    ``points`` holds (point, label, tag) triples in row order.  ``members``
    enumerates the family in variable order; only ``primal`` calls it, so a
    boost never enumerates the family.  ``intersect`` returns None for an
    empty intersection.
    """

    points: tuple[tuple[P, int, str], ...]
    members: Callable[[], Iterable[K]]
    cost: Callable[[K], Fraction]
    tag: Callable[[K], str]
    contains: Callable[[K, P], bool]
    intersect: Callable[[K, K], K | None]
    sort_key: Callable[[K], object]

    def primal(self, name: str, eps: Fraction, relaxed: bool) -> LinearProgram:
        """The partition LP at error eps; ``relaxed`` relaxes total mass to <= 1.

        Column 2k + z is the weight of label z on the k-th member.
        """
        check_unit_interval("eps", eps)
        members = list(self.members())
        costs = [self.cost(k) for k in members]
        den = lcm(*(c.denominator for c in costs))
        nums = [c.numerator * (den // c.denominator) for c in costs for _ in (0, 1)]
        cost = scaled_row(range(len(nums)), nums, den, "=", 0, "objective")
        rel = "<=" if relaxed else "="
        covering: list[Row] = []
        mass: list[Row] = []
        for p, label, tag in self.points:
            inside = [2 * k for k, member in enumerate(members) if self.contains(member, p)]
            covering.append(unit_row([j + label for j in inside], ">=", 1 - eps, f"cov_{tag}"))
            mass.append(unit_row([j + z for j in inside for z in (0, 1)], rel, _ONE, f"mass_{tag}"))
        return LinearProgram(
            name,
            tuple(f"w{z}_{self.tag(k)}" for k in members for z in (0, 1)),
            cost,
            tuple(covering + mass),
        )

    def mass_at(self, weights: LabelledWeights, p: P, label: int | None = None) -> Fraction:
        """Weight on the members containing p: all labels, or ``label`` only."""
        inside = (
            w for (z, k), w in weights.items() if label in (None, z) and self.contains(k, p)
        )
        return sum(inside, Fraction(0))

    def objective(self, weights: LabelledWeights) -> Fraction:
        return sum((self.cost(k) * w for (_, k), w in weights.items()), Fraction(0))

    def boost(self, weights: LabelledWeights, t: int) -> BoostResult:
        """t-fold majority product of an exact-total-mass solution.

        Preconditions (verified): t odd; per-point total mass is exactly 1.
        Postconditions (verified): the objective is at most (input
        objective)**t; per-point total mass stays exactly 1; per-point
        correct mass equals 1 - tail(a_p, t), where a_p is the input's
        correct mass at p.
        """
        if t < 1 or t % 2 == 0:
            raise ValueError(f"vote count must be a positive odd integer, got {t}")
        for p, _, tag in self.points:
            if self.mass_at(weights, p) != 1:
                raise InfeasibleConstructionError(
                    f"input is not an exact-mass partition solution at {tag}"
                )
        boosted = majority_product_boost(weights, t, self.intersect, self.sort_key)
        objective = self.objective(boosted)
        if objective > self.objective(weights) ** t:
            raise InfeasibleConstructionError("boosted objective exceeds the product bound")
        worst = Fraction(0)
        for p, label, tag in self.points:
            if self.mass_at(boosted, p) != 1:
                raise InfeasibleConstructionError(f"boosted total mass at {tag} is not 1")
            tail = majority_error(self.mass_at(weights, p, label), t)
            if self.mass_at(boosted, p, label) != 1 - tail:
                raise InfeasibleConstructionError(
                    f"boosted correct mass at {tag} differs from the binomial tail"
                )
            worst = max(worst, tail)
        return BoostResult(boosted, t, worst, objective)
