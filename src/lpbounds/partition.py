"""The labelled partition LP behind prt, rprt and qprt, and its verified boost.

One side of the paper is a ``LabelledFamily``: the points p of one shape
and an intersection-closed family of members K (rectangles or subcubes),
each with a cost c(K).  A function's labels z(p) in {0,1} are passed in.
Its partition LP has one weight per label and member:

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

from fractions import Fraction
from functools import cached_property
from typing import Callable, Generic, Hashable, Iterable, Sequence, TypeVar

from .boosting import majority_product_boost
from .errors import DimensionMismatchError, InfeasibleConstructionError
from .lp import LinearProgram, Names, Row, scaled_row, unit_row
from .rational import format_rational, majority_error, numerators
from .records import Record, replace, set_field

K = TypeVar("K", bound=Hashable)

LabelledWeights = dict[tuple[int, K], Fraction]
Labels = Sequence[int]  # one label in {0,1} per point, in point order

_ONE = Fraction(1)


def check_unit_interval(name: str, value: Fraction) -> None:
    """Error parameters are probabilities; anything outside [0,1] is rejected."""
    if not 0 <= value <= 1:
        raise DimensionMismatchError(f"{name} must lie in [0,1], got {format_rational(value)}")


class BoostResult(Record, Generic[K]):
    """A verified t-fold majority product.

    ``achieved_error`` is the exact worst-case per-point error: the largest
    binomial tail at a point's input correct mass.
    """

    weights: LabelledWeights
    votes: int
    achieved_error: Fraction
    objective: Fraction


class LabelledFamily(Record, Generic[K]):
    """The points of one shape and an intersection-closed family of members.

    ``tags`` names the points in row order and ``members`` lists the family
    in variable order, which is also the order of the boost's result;
    ``cells(member)`` gives the indices of the points a member contains.
    ``intersect`` returns None for an empty intersection.  Labels are passed
    in, one per point, so one family, with its layout ``containing``, its
    variable names and its total-mass and covering rows worked out once,
    serves every build.
    """

    tags: tuple[str, ...]
    members: tuple[K, ...]
    cost: Callable[[K], Fraction]
    tag: Callable[[K], str]
    cells: Callable[[K], Iterable[int]]
    intersect: Callable[[K, K], K | None]

    def __post_init__(self) -> None:
        # by eps, the covering row of point i and label z at 2i + z, made when a build first needs it
        set_field(self, "_covering", {})

    @cached_property
    def containing(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the increasing indices of the members containing it."""
        out: list[list[int]] = [[] for _ in self.tags]
        appends = [column.append for column in out]  # bound once: 1 M appends at 8x8
        for k, member in enumerate(self.members):
            for i in self.cells(member):
                appends[i](k)
        return tuple(map(tuple, out))

    @cached_property
    def _position(self) -> dict[K, int]:
        """Each member's index in ``members``."""
        return {member: k for k, member in enumerate(self.members)}

    @cached_property
    def _costs(self) -> tuple[int, dict[K, int]]:
        """Each member's cost as an integer numerator over one common denominator."""
        den, costs = numerators(map(self.cost, self.members))
        return den, dict(zip(self.members, costs))

    @cached_property
    def _columns(self) -> tuple[Names, Row]:
        """The variable names of ``primal`` and its cost row."""
        den, costs = self._costs
        nums = [c for c in costs.values() for _ in (0, 1)]
        names = Names(f"w{z}_{self.tag(k)}" for k in self.members for z in (0, 1))
        return names, scaled_row(range(len(nums)), nums, den, "=", 0, "objective")

    @cached_property
    def _label_columns(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per point, its columns 2k + z for label 0 and for label 1, increasing."""
        # one int object per column, shared by every row that holds it
        by_label = [list(range(z, 2 * len(self.members), 2)) for z in (0, 1)]
        return tuple(tuple(tuple(map(columns.__getitem__, ks)) for columns in by_label)
                     for ks in self.containing)

    @cached_property
    def _mass_rows(self) -> dict[bool, tuple[Row, ...]]:
        """The total-mass rows by ``relaxed``: exact, and relaxed to <= 1 on the same columns."""
        exact = tuple(unit_row(sorted(zero + one), "=", _ONE, f"mass_{tag}")
                      for tag, (zero, one) in zip(self.tags, self._label_columns))
        return {False: exact, True: tuple(replace(row, rel="<=") for row in exact)}

    def primal(self, labels: Labels, eps: Fraction, relaxed: bool) -> LinearProgram:
        """The partition LP at error eps; ``relaxed`` relaxes total mass to <= 1.

        Column 2k + z is the weight of label z on the k-th member.  Only the
        covering rows depend on the labels and eps: the row of point p at
        label z and eps is made once and kept on the family, so every build
        of this shape at that eps shares it.
        """
        check_unit_interval("eps", eps)
        made = self._covering.setdefault(eps, [None] * (2 * len(self.tags)))
        covering = []
        for i, z in enumerate(labels):
            row = made[2 * i + z]
            if row is None:
                row = made[2 * i + z] = unit_row(self._label_columns[i][z], ">=", 1 - eps,
                                                 f"cov_{self.tags[i]}")
            covering.append(row)
        return LinearProgram(*self._columns, (*covering, *self._mass_rows[relaxed]))

    def masses(self, weights: LabelledWeights, labels: Labels) -> tuple[list[Fraction], ...]:
        """Per point, the weight on the members containing it: in all, and of its own label.

        Integer numerators are summed over one common denominator; only the
        results are Fractions.
        """
        return self._masses(weights, labels, *numerators(weights.values()))

    def _masses(self, weights: LabelledWeights, labels: Labels, den: int, nums: list[int]
                ) -> tuple[list[Fraction], ...]:
        """``masses``, given the weights' ``numerators``."""
        total = [0] * len(self.tags)
        correct = list(total)
        for (z, k), num in zip(weights, nums):
            for i in self.cells(k):
                total[i] += num
                if labels[i] == z:
                    correct[i] += num
        return [Fraction(m, den) for m in total], [Fraction(m, den) for m in correct]

    def objective(self, weights: LabelledWeights) -> Fraction:
        """sum c(K) * w_{z,K}, summed as integers over one common denominator."""
        return self._objective(weights, *numerators(weights.values()))

    def _objective(self, weights: LabelledWeights, den: int, nums: list[int]) -> Fraction:
        """``objective``, given the weights' ``numerators``."""
        cden, costs = self._costs
        return Fraction(sum(costs[k] * num for (_, k), num in zip(weights, nums)), cden * den)

    def boost(self, weights: LabelledWeights, labels: Labels, t: int) -> BoostResult:
        """t-fold majority product of an exact-total-mass solution.

        Preconditions (verified): every member is in the family; per-point
        total mass is exactly 1; t odd (by ``majority_product_boost``).
        Postconditions (verified): the objective is at most (input
        objective)**t; per-point total mass stays exactly 1; per-point
        correct mass equals 1 - tail(a_p, t), where a_p is the input's
        correct mass at p.
        """
        position = self._position
        for _, k in weights:
            if k not in position:
                raise DimensionMismatchError(f"member {self.tag(k)} is outside the family's shape")
        den, nums = numerators(weights.values())
        total, correct = self._masses(weights, labels, den, nums)
        for tag, mass in zip(self.tags, total):
            if mass != 1:
                raise InfeasibleConstructionError(
                    f"input is not an exact-mass partition solution at {tag}"
                )
        bound = self._objective(weights, den, nums) ** t
        boosted = majority_product_boost(weights, t, self.cells, self.intersect,
                                         position.__getitem__)
        den, nums = numerators(boosted.values())
        objective = self._objective(boosted, den, nums)
        if objective > bound:
            raise InfeasibleConstructionError("boosted objective exceeds the product bound")
        # 1 - tail(a, t), once per distinct input correct mass a: a function has few of them
        hits = {a: 1 - majority_error(a, t) for a in set(correct)}
        for tag, a, mass, hit in zip(self.tags, correct, *self._masses(boosted, labels, den, nums)):
            if mass != 1:
                raise InfeasibleConstructionError(f"boosted total mass at {tag} is not 1")
            if hit != hits[a]:
                raise InfeasibleConstructionError(
                    f"boosted correct mass at {tag} differs from the binomial tail"
                )
        return BoostResult(boosted, t, 1 - min(hits.values()), objective)
