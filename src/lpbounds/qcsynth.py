"""Decision tree synthesis from a feasible subcube system.

The recursion: while the conditional distribution is balanced and the
0-side certificate still has traction, pick a biased subcube A0 from the
``u`` family (small 1-mass relative to 0-mass), query its support bits,
and recurse on every outcome with the ``w`` family zeroed on subcubes
support-disjoint from A0 and the 1-mass margin alpha1 recomputed for the
conditional distribution.  Shortcut leaves answer without querying when
one label already carries under 1/4 of the mass, when the biased-subcube
assumption fails (answer 1), or when a branch's recomputed margin
degenerates (alpha1 >= 1).

Exact accounting enforced during construction:

- every chosen A0 is verified biased: mu_1(A0) <= delta * mu_0(A0);
- the disjoint-support 1-mass (the elimination quantity) is verified to be
  at most beta1 + delta at every internal node;
- the outcome-averaged recomputed margins satisfy
  sum_sigma mu_1-mass(sigma) * alpha1^sigma <= (alpha1 + 4 beta1 + 4 delta) * mu_1
  at every internal node;
- the finished tree has depth <= a*b and its exhaustively measured error
  is at most 1/4 + alpha1 + beta1 + 4 b (beta1 + delta)
  + beta0 / ((1 - alpha0) delta).

The recursion runs on integers.  ``mu`` is read once as its point weights
W[x] = D * mu(x) (``point_weights``) and ``u`` and ``w`` once each as
integer numerators over one denominator (``rational.numerators``), keyed by
each subcube's (support, values) masks.  A node is the region fixed by the
queries above it.  Conditioning a product measure on fixed bits restricts W
to that region, so a node's label masses are integer sums of W over the
region, over the region's weight; that weight is positive, as no query
fixes a bit that ``mu`` fixes.  The guess, assumption, bias and best-score
tests and the margin leaves compare integers, projections add numerators,
and an outcome's margin alpha1 is an integer pair.  Fractions are built
once per internal node: its alpha1, the elimination value ``BuildStats``
records and the outcome-averaged margin its check reads.
"""

from __future__ import annotations

from fractions import Fraction

from . import qcbounds
from .errors import (
    DimensionMismatchError,
    InfeasibleConstructionError,
    NoBiasedRectangleError,
)
from .model import BitProductDistribution, Masks, QueryFunction, Subcube, popular_label, project_weights
from .rational import ceil_mul_log2, min_odd_votes_for_error, numerators
from .records import Record
from .trees import DecisionTree, DNode, Leaf, dtree_error, dtree_queried_bits_ok, tree_depth


class BuildStats:
    internal_nodes = guess_leaves = assumption_leaves = budget_leaves = margin_leaves = expectation_checks = 0
    error: Fraction | None = None  # the finished tree's measured error, once it is measured

    def __init__(self) -> None:
        self.elimination_values: list[Fraction] = []


def build_decision_tree(
    g: QueryFunction,
    mu: BitProductDistribution,
    system: qcbounds.FeasibleSystem,
    delta: Fraction,
) -> tuple[DecisionTree, BuildStats]:
    """Decision tree of depth at most a*b with certified error.

    ``delta`` is the bias threshold for subcube selection.  All structural
    guarantees listed in the module docstring are asserted exactly during
    construction; the final error assertion is made against the measured
    (exhaustive) error, never the recursion's own accounting.
    """
    if delta <= 0:
        raise DimensionMismatchError("delta must be positive")
    if not 0 <= system.alpha0 < 1:
        raise DimensionMismatchError("the 0-side margin alpha0 must lie in [0, 1)")
    if g.n != mu.n or g.n != system.n:
        raise DimensionMismatchError("bit counts disagree")
    problems = system.verify(g, mu)
    if problems:
        raise InfeasibleConstructionError(f"infeasible system: {problems[0]}")

    build = Recursion(g, mu, system, delta)
    tree = build.recurse((0, 0), build.u, build.w, system.alpha1.as_integer_ratio(), system.b)
    stats = build.stats

    depth = tree_depth(tree)
    if depth > system.a * system.b:
        raise InfeasibleConstructionError(
            f"depth {depth} exceeds a*b = {system.a * system.b}"
        )
    if not dtree_queried_bits_ok(tree):
        raise InfeasibleConstructionError("a path queries the same bit twice")
    stats.error = dtree_error(tree, g, mu)
    formula = certified_error_budget(system, delta)
    if stats.error > formula:
        raise InfeasibleConstructionError(
            f"measured error {stats.error} exceeds the certified budget {formula}"
        )
    return tree, stats


class Recursion:
    """One build's state: ``u`` and ``w`` as numerators keyed by masks, ``w``'s over ``w_den``.

    ``mu`` is read through its integer ``label_sums``.  ``assumption`` holds
    the assumption's two coefficients as integers; ``cap`` and ``slack`` are
    the Fractions that the checks of an internal node read.
    """

    def __init__(
        self,
        g: QueryFunction,
        mu: BitProductDistribution,
        system: qcbounds.FeasibleSystem,
        delta: Fraction,
    ) -> None:
        self.g, self.mu = g, mu
        _, nums = numerators(system.u.values())
        self.u = {(c.support, c.values): num for c, num in zip(system.u, nums)}
        self.w_den, nums = numerators(system.w.values())
        self.w = {(c.support, c.values): num for c, num in zip(system.w, nums)}
        self.a, self.delta = system.a, delta
        # the assumption (1 - alpha0) mu_0 > (beta0 / delta) mu_1, cleared of denominators
        k0, k1 = 1 - system.alpha0, system.beta0 / delta
        self.assumption = (k0.numerator * k1.denominator, k1.numerator * k0.denominator)
        self.cap = system.beta1 + delta  # of the eliminated 1-mass
        self.slack = 4 * system.beta1 + 4 * delta  # of the outcome-averaged margin over alpha1
        self.stats = BuildStats()

    def within(self, cube: Masks, region: Masks) -> Subcube:
        """``cube`` in ``region``, which it meets."""
        return Subcube(self.g.n, cube[0] | region[0], cube[1] | region[1])

    def label_sums(self, cube: Masks, region: Masks) -> tuple[int, int]:
        """(D * mu_0, D * mu_1) of ``cube`` in ``region``, as integer sums of W."""
        return self.mu.label_sums(self.g, self.within(cube, region))

    def biased(self, sums: tuple[int, int]) -> bool:
        """mu_1 <= delta * mu_0, for label sums over one denominator."""
        return sums[1] * self.delta.denominator <= self.delta.numerator * sums[0]

    def assumption_holds(self, sums: tuple[int, int]) -> bool:
        """(1 - alpha0) mu_0 - (beta0 / delta) mu_1 > 0, for label sums over one denominator."""
        return self.assumption[0] * sums[0] > self.assumption[1] * sums[1]

    def find_biased_subcube(self, region: Masks, u: dict[Masks, int]) -> Masks:
        """A biased support subcube in ``region``: mu_1(A) <= delta * mu_0(A), support <= a.

        ``u`` is projected onto ``region``.  Requires (1 - alpha0) mu_0 -
        (beta0/delta) mu_1 > 0 in ``region``; under that assumption a biased
        subcube with positive u-weight exists.  Among the qualifying subcubes
        the one maximizing u_A * mu_0(A) is returned, ties broken by
        canonical subcube order.
        """
        if not self.assumption_holds(self.label_sums((0, 0), region)):
            raise NoBiasedRectangleError(
                "biased-subcube assumption fails: answering 1 without queries"
            )
        best: Masks | None = None
        best_score = 0
        for cube in sorted(u, key=lambda c: (c[0].bit_count(), *c)):  # ``model.cube_key``
            weight = u[cube]
            if weight <= 0 or cube[0].bit_count() > self.a:
                continue
            sums = self.label_sums(cube, region)
            if not self.biased(sums):
                continue
            score = weight * sums[0]
            if best is None or score > best_score:
                best, best_score = cube, score
        if best is None:
            raise NoBiasedRectangleError("no biased subcube in the support")
        return best

    def elimination_bound(self, region: Masks, cube: Masks, w: dict[Masks, int]) -> Fraction:
        """1-mass carried in ``region`` by w-subcubes support-disjoint from ``cube``.

        ``w`` is projected onto ``region``.  Verified to be at most beta1 +
        delta; a violation is fatal because the inequality is guaranteed for
        product measures once ``cube`` is biased and ``w`` obeys its pointwise
        caps.
        """
        if not self.biased(self.label_sums(cube, region)):
            raise InfeasibleConstructionError("elimination bound requires a biased subcube")
        total = sum(num * self.label_sums(c, region)[1] for c, num in w.items() if not c[0] & cube[0])
        value = Fraction(total, self.w_den * sum(self.label_sums((0, 0), region)))
        if value > self.cap:
            raise InfeasibleConstructionError(
                f"disjoint-support 1-mass {value} exceeds beta1 + delta = {self.cap}"
            )
        return value

    def recurse(
        self, region: Masks, u: dict[Masks, int], w: dict[Masks, int], alpha1: tuple[int, int],
        budget: int,
    ) -> DecisionTree:
        """The subtree of ``region``; ``u`` and ``w`` are projected onto a region around it.

        ``w`` has lost the subcubes eliminated above, and ``alpha1`` is a
        (numerator, denominator) pair.
        """
        stats = self.stats
        m0, m1 = self.label_sums((0, 0), region)
        if 4 * min(m0, m1) < m0 + m1:
            stats.guess_leaves += 1
            return Leaf(popular_label(m0, m1))
        if not self.assumption_holds((m0, m1)):
            stats.assumption_leaves += 1
            return Leaf(1)
        if budget == 0:
            stats.budget_leaves += 1
            return Leaf(popular_label(m0, m1))

        u, w = project_weights(u, region), project_weights(w, region)
        a0 = self.find_biased_subcube(region, u)
        stats.elimination_values.append(self.elimination_bound(region, a0, w))
        stats.internal_nodes += 1
        support = a0[0]
        # support-disjoint w mass is eliminated
        w = {c: num for c, num in w.items() if c[0] & support}
        # by outcome, its values on ``support``: label sums, and W times the kept w-mass on label 1
        weights, labels = self.mu.point_weights[1], self.g.labels
        n = self.g.n
        out, carried = [[0] * (1 << n), [0] * (1 << n)], [0] * (1 << n)
        for x in self.within((0, 0), region).members():
            out[labels[x]][x & support] += weights[x]
        for c, num in w.items():
            for x in self.within(c, region).members():
                if labels[x]:
                    carried[x & support] += num * weights[x]

        outcomes: dict[int, DecisionTree] = {}
        # sum over outcomes of mu_1(outcome) * alpha1^outcome, times w_den * mu(region)
        expectation = 0
        for values in Subcube(n, support ^ ((1 << n) - 1), 0).members():  # ascending
            one = self.w_den * out[1][values]
            held = one - carried[values]  # alpha1^outcome = held / one
            expectation += held
            if one and held >= one:
                stats.margin_leaves += 1
                outcomes[values] = Leaf(popular_label(out[0][values], out[1][values]))
            else:
                outcomes[values] = self.recurse((region[0] | support, region[1] | values), u, w,
                                                (held, one or 1), budget - 1)

        expectation = Fraction(expectation, self.w_den * (m0 + m1))
        bound = (Fraction(*alpha1) + self.slack) * Fraction(m1, m0 + m1)
        if expectation > bound:
            raise InfeasibleConstructionError(
                f"outcome-averaged margin {expectation} exceeds {bound}"
            )
        stats.expectation_checks += 1

        bits = [i for i in range(n) if (support >> i) & 1]

        def attach(i: int, values: int) -> DecisionTree:
            if i == len(bits):
                return outcomes[values]
            return DNode(
                bits[i],
                attach(i + 1, values),
                attach(i + 1, values | (1 << bits[i])),
            )

        return attach(0, 0)


def certified_error_budget(system: qcbounds.FeasibleSystem, delta: Fraction) -> Fraction:
    """1/4 + alpha1 + beta1 + 4 b (beta1 + delta) + beta0 / ((1-alpha0) delta)."""
    return (
        Fraction(1, 4)
        + system.alpha1
        + system.beta1
        + 4 * system.b * (system.beta1 + delta)
        + system.beta0 / ((1 - system.alpha0) * delta)
    )


class QCSynthReport(Record):
    """End-to-end decision-tree synthesis record."""

    qprt_value: Fraction
    c: int
    gamma: Fraction
    votes: int
    boosted_error: Fraction
    system: qcbounds.FeasibleSystem
    delta: Fraction
    tree: DecisionTree
    stats: BuildStats

    @property
    def error(self) -> Fraction:
        """The tree's exhaustively measured error, as ``build_decision_tree`` measured it."""
        return self.stats.error

    @property
    def depth(self) -> int:
        return tree_depth(self.tree)

    @property
    def depth_bound(self) -> int:
        return self.system.a * self.system.b

    @property
    def error_budget(self) -> Fraction:
        return certified_error_budget(self.system, self.delta)

    @property
    def half_error_certified(self) -> bool:
        """Whether the budget, which bounds the measured error, is at most 0.49."""
        return self.error_budget <= Fraction(49, 100)


def synthesis_pipeline(
    g: QueryFunction,
    mu: BitProductDistribution,
    eps: Fraction = Fraction(1, 8),
    delta: Fraction | None = None,
) -> QCSynthReport:
    """qprt solve -> majority boost -> split -> decision tree, all certified.

    The boosting target is gamma = 1/c**8 with c = 8 + ceil(log2(ceil of
    the qprt value)); the tree's bias threshold defaults to 1/c**4.  The
    report certifies error <= 0.49 only when the exact error budget of the
    constructed system permits it; otherwise the measured error is reported
    against the budget alone.
    """
    if eps >= Fraction(1, 2):
        raise DimensionMismatchError("the base error level must be below 1/2")
    if delta is not None and delta <= 0:  # build_decision_tree checks it too, after the solve
        raise DimensionMismatchError("delta must be positive")
    if g.n != mu.n:  # before the qprt solve, with the message label_sums gives
        raise DimensionMismatchError(
            f"bit counts disagree: measure {mu.n}, function {g.n}, subcube {g.n}"
        )
    bound = qcbounds.qprt_bound(g, eps)
    value = bound.value
    ceil_value = -((-value.numerator) // value.denominator)
    c = 8 + (ceil_mul_log2(1, Fraction(ceil_value)) if ceil_value > 1 else 0)
    gamma = Fraction(1, c**8)
    votes = min_odd_votes_for_error(1 - eps, gamma)
    sol = qcbounds.qprt_solution(g, bound)
    boosted = qcbounds.boost_qprt(sol, g, votes)
    system = qcbounds.extract_feasible(boosted, gamma, mu)
    if delta is None:
        delta = Fraction(1, c**4)
    tree, stats = build_decision_tree(g, mu, system, delta)
    return QCSynthReport(
        qprt_value=value,
        c=c,
        gamma=gamma,
        votes=votes,
        boosted_error=boosted.achieved_error,
        system=system,
        delta=delta,
        tree=tree,
        stats=stats,
    )
