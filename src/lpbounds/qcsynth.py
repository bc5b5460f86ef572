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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    InfeasibleConstructionError,
    NoBiasedRectangleError,
)
from .model import (
    BitProductDistribution,
    QueryFunction,
    Subcube,
    cube_key,
    full_cube,
    popular_label,
    project_weights,
)
from .qcbounds import FeasibleSystem
from .trees import DecisionTree, DNode, Leaf, dtree_error, dtree_queried_bits_ok, tree_depth


def find_biased_subcube(
    g: QueryFunction,
    mu: BitProductDistribution,
    u: dict[Subcube, Fraction],
    alpha0: Fraction,
    beta0: Fraction,
    delta: Fraction,
    a: int,
) -> Subcube:
    """A biased support subcube: mu_1(A) <= delta * mu_0(A), support <= a.

    Requires (1 - alpha0) mu_0 - (beta0/delta) mu_1 > 0; under that
    assumption a biased subcube with positive u-weight exists.  Among the
    qualifying subcubes the one maximizing u_A * mu_0(A) is returned, ties
    broken by canonical subcube order.
    """
    mu0, mu1 = mu.label_masses(g, full_cube(g.n))
    if (1 - alpha0) * mu0 - (beta0 / delta) * mu1 <= 0:
        raise NoBiasedRectangleError(
            "biased-subcube assumption fails: answering 1 without queries"
        )
    best: Subcube | None = None
    best_score: Fraction | None = None
    for cube in sorted(u, key=cube_key):
        weight = u[cube]
        if weight <= 0 or cube.size > a:
            continue
        m0, m1 = mu.label_masses(g, cube)
        if m1 > delta * m0:
            continue
        score = weight * m0
        if best_score is None or score > best_score:
            best, best_score = cube, score
    if best is None:
        raise NoBiasedRectangleError("no biased subcube in the support")
    return best


def elimination_bound(
    g: QueryFunction,
    mu: BitProductDistribution,
    cube: Subcube,
    w: dict[Subcube, Fraction],
    beta1: Fraction,
    delta: Fraction,
) -> Fraction:
    """1-mass carried by w-subcubes support-disjoint from ``cube``.

    Verified to be at most beta1 + delta; a violation is fatal because the
    inequality is guaranteed for product measures once ``cube`` is biased
    and ``w`` obeys its pointwise caps.
    """
    m0, m1 = mu.label_masses(g, cube)
    if m1 > delta * m0:
        raise InfeasibleConstructionError("elimination bound requires a biased subcube")
    total = Fraction(0)
    for b, wv in w.items():
        if b.support & cube.support == 0:
            total += wv * mu.label_masses(g, b)[1]
    if total > beta1 + delta:
        raise InfeasibleConstructionError(
            f"disjoint-support 1-mass {total} exceeds beta1 + delta = {beta1 + delta}"
        )
    return total


@dataclass
class BuildStats:
    internal_nodes: int = 0
    guess_leaves: int = 0
    assumption_leaves: int = 0
    budget_leaves: int = 0
    margin_leaves: int = 0
    expectation_checks: int = 0
    elimination_values: list[Fraction] = field(default_factory=list)


def build_decision_tree(
    g: QueryFunction,
    mu: BitProductDistribution,
    system: FeasibleSystem,
    delta: Fraction,
) -> tuple[DecisionTree, BuildStats]:
    """Decision tree of depth at most a*b with certified error.

    ``delta`` is the bias threshold for subcube selection.  All structural
    guarantees listed in the module docstring are asserted exactly during
    construction; the final error assertion is made against the measured
    (exhaustive) error, never the recursion's own accounting.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 <= system.alpha0 < 1:
        raise ValueError("the 0-side margin alpha0 must lie in [0, 1)")
    if g.n != mu.n or g.n != system.n:
        raise DimensionMismatchError("bit counts disagree")
    problems = system.verify(g, mu)
    if problems:
        raise InfeasibleConstructionError(f"infeasible system: {problems[0]}")

    stats = BuildStats()
    quarter = Fraction(1, 4)
    cube_all = full_cube(g.n)
    full = (1 << g.n) - 1

    def recurse(
        cur_mu: BitProductDistribution,
        u: dict[Subcube, Fraction],
        w: dict[Subcube, Fraction],
        alpha1: Fraction,
        budget: int,
    ) -> DecisionTree:
        m0, m1 = cur_mu.label_masses(g, cube_all)
        if min(m0, m1) < quarter:
            stats.guess_leaves += 1
            return Leaf(popular_label(m0, m1))
        if (1 - system.alpha0) * m0 - (system.beta0 / delta) * m1 <= 0:
            stats.assumption_leaves += 1
            return Leaf(1)
        if budget == 0:
            stats.budget_leaves += 1
            return Leaf(popular_label(m0, m1))

        a0 = find_biased_subcube(
            g, cur_mu, u, system.alpha0, system.beta0, delta, system.a
        )
        stats.elimination_values.append(
            elimination_bound(g, cur_mu, a0, w, system.beta1, delta)
        )
        stats.internal_nodes += 1
        support = a0.support
        bits = [i for i in range(g.n) if (support >> i) & 1]

        outcomes: dict[int, DecisionTree] = {}
        expectation = Fraction(0)
        for values in Subcube(g.n, full ^ support, 0).members():
            outcome = Subcube(g.n, support, values)
            sub_mu = cur_mu.condition(support, values)
            sub_u = project_weights(u, outcome)
            # support-disjoint w mass is eliminated
            sub_w = project_weights({c: v for c, v in w.items() if c.support & support}, outcome)
            sub_m0, sub_m1 = sub_mu.label_masses(g, cube_all)
            if sub_m1 == 0:
                sub_alpha1 = Fraction(0)
            else:
                carried = sum(
                    (v * sub_mu.label_masses(g, c)[1] for c, v in sub_w.items()),
                    Fraction(0),
                )
                sub_alpha1 = 1 - carried / sub_m1
            expectation += cur_mu.mass(outcome) * sub_m1 * sub_alpha1
            if sub_alpha1 >= 1:
                stats.margin_leaves += 1
                outcomes[values] = Leaf(popular_label(sub_m0, sub_m1))
            else:
                outcomes[values] = recurse(sub_mu, sub_u, sub_w, sub_alpha1, budget - 1)

        bound = (alpha1 + 4 * system.beta1 + 4 * delta) * m1
        if expectation > bound:
            raise InfeasibleConstructionError(
                f"outcome-averaged margin {expectation} exceeds {bound}"
            )
        stats.expectation_checks += 1

        def attach(i: int, values: int) -> DecisionTree:
            if i == len(bits):
                return outcomes[values]
            return DNode(
                bits[i],
                attach(i + 1, values),
                attach(i + 1, values | (1 << bits[i])),
            )

        return attach(0, 0)

    tree = recurse(mu, dict(system.u), dict(system.w), system.alpha1, system.b)

    depth = tree_depth(tree)
    if depth > system.a * system.b:
        raise InfeasibleConstructionError(
            f"depth {depth} exceeds a*b = {system.a * system.b}"
        )
    if not dtree_queried_bits_ok(tree):
        raise InfeasibleConstructionError("a path queries the same bit twice")
    err = dtree_error(tree, g, mu)
    formula = certified_error_budget(system, delta)
    if err > formula:
        raise InfeasibleConstructionError(
            f"measured error {err} exceeds the certified budget {formula}"
        )
    return tree, stats


def certified_error_budget(system: FeasibleSystem, delta: Fraction) -> Fraction:
    """1/4 + alpha1 + beta1 + 4 b (beta1 + delta) + beta0 / ((1-alpha0) delta)."""
    return (
        Fraction(1, 4)
        + system.alpha1
        + system.beta1
        + 4 * system.b * (system.beta1 + delta)
        + system.beta0 / ((1 - system.alpha0) * delta)
    )


@dataclass(frozen=True)
class QCSynthReport:
    """End-to-end decision-tree synthesis record."""

    qprt_value: Fraction
    c: int
    gamma: Fraction
    votes: int
    boosted_error: Fraction
    system: FeasibleSystem
    delta: Fraction
    tree: DecisionTree
    depth: int
    error: Fraction
    error_budget: Fraction
    half_error_certified: bool
    stats: BuildStats

    @property
    def depth_bound(self) -> int:
        return self.system.a * self.system.b


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
    # imported per call, so that the wrappers bench/layers.py puts on these names see the calls
    from .qcbounds import boost_qprt, extract_feasible, qprt_bound, qprt_solution
    from .rational import ceil_mul_log2, min_odd_votes_for_error

    if eps >= Fraction(1, 2):
        raise ValueError("the base error level must be below 1/2")
    bound = qprt_bound(g, eps)
    value = bound.value
    ceil_value = -((-value.numerator) // value.denominator)
    c = 8 + (ceil_mul_log2(1, Fraction(ceil_value)) if ceil_value > 1 else 0)
    gamma = Fraction(1, c**8)
    votes = min_odd_votes_for_error(1 - eps, gamma)
    sol = qprt_solution(g, bound)
    boosted = boost_qprt(sol, g, votes)
    system = extract_feasible(boosted, gamma, g, mu)
    if delta is None:
        delta = Fraction(1, c**4)
    tree, stats = build_decision_tree(g, mu, system, delta)
    err = dtree_error(tree, g, mu)
    budget = certified_error_budget(system, delta)
    certified = budget <= Fraction(49, 100)
    if certified and err > Fraction(49, 100):
        raise InfeasibleConstructionError(
            f"error {err} exceeds 0.49 despite a certifying budget {budget}"
        )
    return QCSynthReport(
        qprt_value=value,
        c=c,
        gamma=gamma,
        votes=votes,
        boosted_error=boosted.achieved_error,
        system=system,
        delta=delta,
        tree=tree,
        depth=tree_depth(tree),
        error=err,
        error_budget=budget,
        half_error_certified=certified,
        stats=stats,
    )
