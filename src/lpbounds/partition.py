"""The labelled partition LP behind prt, rprt and qprt, and its verified boost.

One side of the paper is a ``LabelledFamily``: the points p of one shape
and an intersection-closed family of members K (rectangles or subcubes),
each with an integer cost c(K).  A function's labels z(p) in {0,1} are passed in.
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
solutions and Bland pivot paths depend on these names and orders.  A
point's rows depend only on the shape and the level, so each is made
once: its total-mass rows, and its covering rows at both labels per eps.

Both proofs lower the error by a t-fold majority vote over a solution w.
Its product assigns

    v[(z, K)] = sum over t-tuples ((z_1,K_1),..,(z_t,K_t))
                with majority label z and K_1 cap .. cap K_t = K
                of  prod_i w[(z_i, K_i)]

Tuples with an empty intersection are dropped: they contribute to no
point's constraint, and dropping them only lowers the objective.
``LabelledFamily.boost`` takes the product of an exact-total-mass
solution and re-verifies every guarantee in exact integers.

The sum has a closed form, in integer numerators over D**t, where D is
the common denominator of w.  Member k of the support carries a pair
(a_k, b_k), its label-0 and label-1 numerators.  The intersection closure
of the support is built on point sets: each member's points are read once
as an int bitmask, two sets meet in ``a & b``, and closure elements are
interned by bitmask, so ``intersect`` only names an element the first
time it appears.  That is sound because distinct nonempty subcubes, and
distinct nonempty rectangles, have distinct point sets.  Each closure
element c records ``mask[c]``, the members that contain it.

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
from functools import cached_property
from typing import Callable, Generic, Hashable, Iterable, Sequence, TypeVar

from .errors import DimensionMismatchError, InfeasibleConstructionError
from .lp import LinearProgram, Names, Row, scaled_row, unit_row
from .rational import check_votes, format_rational, lower_tail, numerators
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
    variable names, its total-mass rows and its covering table per eps
    worked out once, serves every build.
    """

    tags: tuple[str, ...]
    members: tuple[K, ...]
    cost: Callable[[K], int]
    tag: Callable[[K], str]
    cells: Callable[[K], Iterable[int]]
    intersect: Callable[[K, K], K | None]

    def __post_init__(self) -> None:
        # by eps, per point, its covering rows at label 0 and label 1, made by the first build at eps
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
    def _costs(self) -> dict[K, int]:
        """Each member's integer cost."""
        return {k: self.cost(k) for k in self.members}

    @cached_property
    def _columns(self) -> tuple[Names, Row]:
        """The variable names of ``primal`` and its cost row."""
        nums = [c for c in self._costs.values() for _ in (0, 1)]
        names = Names(f"w{z}_{self.tag(k)}" for k in self.members for z in (0, 1))
        return names, scaled_row(range(len(nums)), nums, 1, "=", 0, "objective")

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
        covering rows depend on the labels and eps: the first build at eps
        makes every point's rows at both labels as one table, kept on the
        family, and each build takes the row of each point's label from it.
        """
        check_unit_interval("eps", eps)
        if eps not in self._covering:
            self._covering[eps] = tuple(
                tuple(unit_row(columns, ">=", 1 - eps, f"cov_{tag}") for columns in by_label)
                for tag, by_label in zip(self.tags, self._label_columns))
        covering = [rows[z] for rows, z in zip(self._covering[eps], labels)]
        return LinearProgram(*self._columns, (*covering, *self._mass_rows[relaxed]))

    def boost(self, weights: LabelledWeights, labels: Labels, t: int) -> BoostResult:
        """t-fold majority product of an exact-total-mass solution, checked in integers over D**t.

        Preconditions (verified): every member is in the family; per-point
        total mass is exactly 1; t is odd; the weights are non-negative.
        Postconditions (verified): the objective is at most (input
        objective)**t; per-point total mass stays exactly 1; per-point
        correct mass equals 1 - tail(a_p, t), where a_p is the input's
        correct mass at p.  Only the results are Fractions.
        """
        position = self._position
        for _, k in weights:
            if k not in position:
                raise DimensionMismatchError(f"member {self.tag(k)} is outside the family's shape")
        den, nums = numerators(weights.values())
        costs = self._costs
        base = 0  # the input objective over den
        total = [0] * len(self.tags)
        correct = list(total)
        pairs: dict[K, list[int]] = {}  # member -> its label-0 and label-1 numerators
        for (z, k), num in zip(weights, nums):
            base += costs[k] * num
            if num:
                pairs.setdefault(k, [0, 0])[z] += num
            for i in self.cells(k):
                total[i] += num
                if labels[i] == z:
                    correct[i] += num
        for tag, mass in zip(self.tags, total):
            if mass != den:
                raise InfeasibleConstructionError(f"input is not an exact-mass partition solution at {tag}")
        check_votes(t)
        if any(num < 0 for num in nums):
            raise DimensionMismatchError("majority product needs non-negative weights")
        product = self._product(pairs, t)
        scale = den**t
        objective = sum(costs[k] * (v0 + v1) for k, _, v0, v1 in product)  # over scale
        if objective > base**t:
            raise InfeasibleConstructionError("boosted objective exceeds the product bound")
        total = [0] * len(self.tags)
        hits = list(total)
        for _, points, v0, v1 in product:
            for i in _bits(points):
                total[i] += v0 + v1
                hits[i] += v1 if labels[i] else v0
        # tail(c, den - c, t) over scale, once per distinct input correct numerator c: a function
        # has few of them; by its degree-t homogeneity, tail / scale is the majority error at c / den
        tails = {c: lower_tail(c, den - c, t) for c in set(correct)}
        for tag, c, mass, hit in zip(self.tags, correct, total, hits):
            if mass != scale:
                raise InfeasibleConstructionError(f"boosted total mass at {tag} is not 1")
            if hit != scale - tails[c]:
                raise InfeasibleConstructionError(f"boosted correct mass at {tag} differs from the binomial tail")
        boosted = {(z, k): Fraction(v[z], scale) for z in (0, 1) for k, _, *v in product if v[z]}
        return BoostResult(boosted, t, Fraction(max(tails.values()), scale), Fraction(objective, scale))

    def _product(self, pairs: dict[K, list[int]], t: int) -> list[tuple[K, int, int, int]]:
        """The t-fold majority product of non-negative ``pairs``, member -> [a, b] over D.

        One (member, point bitmask, v0, v1) per closure element of nonzero
        weight, in family order, with v0 and v1 its label-0 and label-1
        weights over D**t: the closed form of the module docstring.
        """
        # The closure on point bitmasks, members first; c & k = m puts k into
        # mask[m], and c = m finds every member containing m.  ``points`` grows
        # as it is read, and ``intersect`` names each new point set once.
        keys = list(pairs)
        member_points = [sum(1 << i for i in self.cells(k)) for k in keys]
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
                    keys.append(self.intersect(keys[c], keys[bit]))
                    points.append(m)
                    masks.append(0)
                masks[i] |= 1 << bit

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
            if v0 or v1:
                inside.append((mask, v0, v1))
                out.append((keys[i], points[i], v0, v1))
        position = self._position
        out.sort(key=lambda element: position[element[0]])
        return out


def _bits(mask: int) -> Iterable[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
