"""Measure, subcube and synthesis code as it was before it moved to integers.

``measure`` and ``bit_measure`` computed one label's mass of a region per
call, summing ``Fraction`` products cell by cell.  ``protocol_error`` and
``dtree_error`` summed the weights of the mismatched inputs the same way,
through ``ProductDistribution2P`` weights and ``BitProductDistribution.point``
(``point`` here).  ``mass`` is ``ProductDistribution2P.mass``,
``fixed_cube`` is ``qcbounds._fixed_cube`` over ``fixed_bits``,
``project_cube`` is ``qcbounds._project_cube``, and ``split_loop`` and
``project_loop`` are the loops ``extract_feasible`` and
``build_decision_tree`` wrote around it; ``project_weights`` is
``model.project_weights`` as it was on ``Subcube`` keys, one loop of
``project_cube`` calls.  ``weighted_masses`` is the Fraction loop of
sum w_K mu_z(K) that ``FeasibleSystem.verify``,
``elimination_bound`` and ``build_decision_tree`` each wrote for z = 1.
They are kept here verbatim, apart from names, as the reference that
``tests/test_model.py`` compares ``label_sums``, the error measures of
``lpbounds.trees``, ``BitProductDistribution.fixed_cube`` and
``model.project_weights`` against; ``tests/reference_oracle.py`` still
uses ``measure`` and ``bit_measure``.  ``weighted_masses`` stands in for
the retired ``weighted_label_masses``: the Fraction build reads it, and
``tests/test_qcsynth.py`` sets alpha1 at its margin with it.

``label_masses`` is the retired ``_PointMeasure.label_masses``, the two
label sums over the measure's denominator: the Fraction view that tests
and the Fraction builds here read.

``restrict`` is ``ProductDistribution2P.restrict``: protocol synthesis
built one restricted measure per node with it, where it now reads the
caller's measure on the node's active rectangle.  ``tests/test_model.py``
checks that the two read the same masses.

``build_decision_tree`` is ``qcsynth.build_decision_tree`` as it was on
Fractions: each outcome conditioned ``mu`` into a new
``BitProductDistribution`` (``condition``, once
``BitProductDistribution.condition``), projected ``u`` and ``w`` with the
Subcube-level ``project_weights`` and compared Fraction masses, through
the Fraction ``find_biased_subcube`` and ``elimination_bound``.
``tests/test_qcsynth.py`` compares the integer build against it: trees,
``BuildStats`` and refusals.

``point_masses`` is the retired ``partition.LabelledFamily.masses``,
summed in Fractions: per point, the weight on the members containing it,
in all and of the point's own label.  ``LabelledFamily.boost`` checks both in integers, and
``tests/test_qcbounds.py`` and ``tests/test_acceptance.py`` read them off
a boosted solution with it.
"""

from __future__ import annotations

from fractions import Fraction

from lpbounds import qcbounds
from lpbounds.errors import (
    DimensionMismatchError,
    InfeasibleConstructionError,
    NoBiasedRectangleError,
)
from lpbounds.model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Rectangle,
    Subcube,
    TwoPartyFunction,
    cube_key,
    full_cube,
    popular_label,
)
from lpbounds.qcsynth import BuildStats, certified_error_budget
from lpbounds.trees import (
    DecisionTree,
    DNode,
    Leaf,
    ProtocolTree,
    dtree_evaluate,
    dtree_queried_bits_ok,
    evaluate,
    tree_depth,
)
from lpbounds.trees import dtree_error as measured_dtree_error


def measure(
    mu: ProductDistribution2P, f: TwoPartyFunction, z: int, rect: Rectangle
) -> Fraction:
    """mu_z(R) = mu(R intersect f^{-1}(z)), by exact summation."""
    if mu.nx != f.nx or mu.ny != f.ny:
        raise DimensionMismatchError(
            f"measure is {mu.nx}x{mu.ny} but function is {f.nx}x{f.ny}"
        )
    total = Fraction(0)
    for x in range(f.nx):
        if not (rect.rows >> x) & 1:
            continue
        rw = mu.row_weights[x]
        if rw == 0:
            continue
        row = f.table[x]
        for y in range(f.ny):
            if (rect.cols >> y) & 1 and row[y] == z:
                total += rw * mu.col_weights[y]
    return total


def bit_measure(
    mu: BitProductDistribution, g: QueryFunction, z: int, cube: Subcube
) -> Fraction:
    """mu_z(A) = mu(A intersect g^{-1}(z)), by enumeration of the subcube."""
    if mu.n != g.n or cube.n != g.n:
        raise DimensionMismatchError(
            f"bit counts disagree: measure {mu.n}, function {g.n}, subcube {cube.n}"
        )
    total = Fraction(0)
    for x in cube.members():
        if g.table[x] == z:
            total += point(mu, x)
    return total


def weighted_masses(mu, fn, weights: dict) -> tuple[Fraction, Fraction]:
    """(sum_K w_K mu_0(K), sum_K w_K mu_1(K)), one Fraction product per region and label."""
    label_mass = measure if isinstance(mu, ProductDistribution2P) else bit_measure
    return tuple(
        sum((w * label_mass(mu, fn, z, region) for region, w in weights.items()), Fraction(0))
        for z in (0, 1)
    )


def label_masses(mu, fn, region) -> tuple[Fraction, Fraction]:
    """(mu_0(region), mu_1(region)): ``mu.label_sums`` over the measure's denominator."""
    den = mu.point_weights[0]
    return tuple(Fraction(s, den) for s in mu.label_sums(fn, region))


def point_masses(family, weights: dict, labels) -> tuple[list[Fraction], list[Fraction]]:
    """Per point of ``family``, the weight on the members containing it: in all, and of its own label."""
    total = [Fraction(0)] * len(family.tags)
    correct = list(total)
    for (z, k), w in weights.items():
        for i in family.cells(k):
            total[i] += w
            if labels[i] == z:
                correct[i] += w
    return total, correct


def point(mu: BitProductDistribution, x: int) -> Fraction:
    m = Fraction(1)
    for i, q in enumerate(mu.p):
        m *= q if (x >> i) & 1 else 1 - q
    return m


def mass(mu: ProductDistribution2P, rect: Rectangle) -> Fraction:
    rw = sum(
        (w for x, w in enumerate(mu.row_weights) if (rect.rows >> x) & 1),
        Fraction(0),
    )
    cw = sum(
        (w for y, w in enumerate(mu.col_weights) if (rect.cols >> y) & 1),
        Fraction(0),
    )
    return rw * cw


def restrict(mu: ProductDistribution2P, rect: Rectangle) -> ProductDistribution2P:
    """Zero out all weight outside the rectangle; stays in product form."""
    return ProductDistribution2P(
        tuple(
            w if (rect.rows >> x) & 1 else Fraction(0)
            for x, w in enumerate(mu.row_weights)
        ),
        tuple(
            w if (rect.cols >> y) & 1 else Fraction(0)
            for y, w in enumerate(mu.col_weights)
        ),
    )


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


def dtree_error(
    tree: DecisionTree, g: QueryFunction, mu: BitProductDistribution
) -> Fraction:
    """Exact error mass Pr_mu[g(x) != tree(x)], by full enumeration."""
    if mu.n != g.n:
        raise DimensionMismatchError("measure and function bit counts differ")
    total = Fraction(0)
    for x in range(1 << g.n):
        if dtree_evaluate(tree, x) != g.value(x):
            total += point(mu, x)
    return total


def fixed_bits(mu: BitProductDistribution) -> int:
    """Mask of coordinates whose marginal is 0 or 1."""
    mask = 0
    for i, q in enumerate(mu.p):
        if q == 0 or q == 1:
            mask |= 1 << i
    return mask


def fixed_cube(n: int, mu: BitProductDistribution) -> Subcube:
    """The points consistent with the bits ``mu`` fixes to 0 or 1."""
    ones = sum(1 << i for i, q in enumerate(mu.p) if q == 1)
    return Subcube(n, fixed_bits(mu), ones)


def project_cube(
    cube: Subcube, fixed_mask: int, fixed_vals: int
) -> Subcube | None:
    """Drop fixed coordinates from the support; None when values conflict."""
    overlap = cube.support & fixed_mask
    if (cube.values ^ fixed_vals) & overlap:
        return None
    keep = cube.support & ~fixed_mask
    return Subcube(cube.n, keep, cube.values & keep)


def project_weights(weights: dict[Subcube, Fraction], onto: Subcube) -> dict[Subcube, Fraction]:
    """Weighted subcubes projected into ``onto``; cubes that project alike add up.

    Cubes disjoint from ``onto`` are dropped.
    """
    out: dict[Subcube, Fraction] = {}
    for cube, w in weights.items():
        proj = project_cube(cube, onto.support, onto.values)
        if proj is not None:
            out[proj] = out.get(proj, Fraction(0)) + w
    return out


def split_loop(
    kept: dict[tuple[int, Subcube], Fraction], fixed: Subcube
) -> tuple[dict[Subcube, Fraction], dict[Subcube, Fraction]]:
    """The u and w families of ``extract_feasible``."""
    u: dict[Subcube, Fraction] = {}
    w: dict[Subcube, Fraction] = {}
    for (z, cube), wv in kept.items():
        proj = project_cube(cube, fixed.support, fixed.values)
        if proj is None:
            continue
        side = u if z == 0 else w
        side[proj] = side.get(proj, Fraction(0)) + wv
    return u, w


def project_loop(
    u: dict[Subcube, Fraction], w: dict[Subcube, Fraction], support: int, values: int
) -> tuple[dict[Subcube, Fraction], dict[Subcube, Fraction]]:
    """The ``sub_u`` and ``sub_w`` families of ``build_decision_tree``."""
    sub_u: dict[Subcube, Fraction] = {}
    for c, v in u.items():
        proj = project_cube(c, support, values)
        if proj is not None:
            sub_u[proj] = sub_u.get(proj, Fraction(0)) + v
    sub_w: dict[Subcube, Fraction] = {}
    for c, v in w.items():
        if c.support & support == 0:
            continue  # support-disjoint mass is eliminated
        proj = project_cube(c, support, values)
        if proj is not None:
            sub_w[proj] = sub_w.get(proj, Fraction(0)) + v
    return sub_u, sub_w


def condition(mu: BitProductDistribution, support: int, values: int) -> BitProductDistribution:
    """Overwrite the marginals on ``support`` with point masses ``values``."""
    return BitProductDistribution(
        tuple(
            (Fraction(1) if (values >> i) & 1 else Fraction(0))
            if (support >> i) & 1
            else q
            for i, q in enumerate(mu.p)
        )
    )


def find_biased_subcube(
    g: QueryFunction,
    mu: BitProductDistribution,
    u: dict[Subcube, Fraction],
    alpha0: Fraction,
    beta0: Fraction,
    delta: Fraction,
    a: int,
) -> Subcube:
    """A biased support subcube: mu_1(A) <= delta * mu_0(A), support <= a."""
    mu0, mu1 = label_masses(mu, g, full_cube(g.n))
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
        m0, m1 = label_masses(mu, g, cube)
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
    """1-mass carried by w-subcubes support-disjoint from ``cube``, at most beta1 + delta."""
    m0, m1 = label_masses(mu, g, cube)
    if m1 > delta * m0:
        raise InfeasibleConstructionError("elimination bound requires a biased subcube")
    disjoint = {b: wv for b, wv in w.items() if b.support & cube.support == 0}
    total = weighted_masses(mu, g, disjoint)[1]
    if total > beta1 + delta:
        raise InfeasibleConstructionError(
            f"disjoint-support 1-mass {total} exceeds beta1 + delta = {beta1 + delta}"
        )
    return total


def build_decision_tree(
    g: QueryFunction,
    mu: BitProductDistribution,
    system: qcbounds.FeasibleSystem,
    delta: Fraction,
) -> tuple[DecisionTree, BuildStats]:
    """Decision tree of depth at most a*b with certified error, on Fractions."""
    if delta <= 0:
        raise DimensionMismatchError("delta must be positive")
    if not 0 <= system.alpha0 < 1:
        raise DimensionMismatchError("the 0-side margin alpha0 must lie in [0, 1)")
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
        m0, m1 = label_masses(cur_mu, g, cube_all)
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
            sub_mu = condition(cur_mu, support, values)
            sub_u = project_weights(u, outcome)
            # support-disjoint w mass is eliminated
            sub_w = project_weights({c: v for c, v in w.items() if c.support & support}, outcome)
            sub_m0, sub_m1 = label_masses(sub_mu, g, cube_all)
            if sub_m1 == 0:
                sub_alpha1 = Fraction(0)
            else:
                sub_alpha1 = 1 - weighted_masses(sub_mu, g, sub_w)[1] / sub_m1
            # mu(outcome) * sub_m1 is mu_1(outcome): sub_mu is mu conditioned on the outcome
            expectation += label_masses(cur_mu, g, outcome)[1] * sub_alpha1
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
    stats.error = measured_dtree_error(tree, g, mu)
    formula = certified_error_budget(system, delta)
    if stats.error > formula:
        raise InfeasibleConstructionError(
            f"measured error {stats.error} exceeds the certified budget {formula}"
        )
    return tree, stats
