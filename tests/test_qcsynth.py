from fractions import Fraction as F

import pytest
import reference_model
from conftest import CC_CORPUS, QC_CORPUS, UNIFORM_4x4, assert_refuses, qprt_cached
from hypothesis import given, settings
from hypothesis import strategies as st

from lpbounds import families, qcsynth
from lpbounds import lp as lpmod
from lpbounds.ccsynth import protocol_pipeline
from lpbounds.errors import (
    DimensionMismatchError,
    InfeasibleConstructionError,
    LpboundsError,
    NoBiasedRectangleError,
)
from lpbounds.model import BitProductDistribution, QueryFunction, Subcube, enumerate_subcubes, full_cube
from lpbounds.qcbounds import (
    FeasibleSystem,
    boost_qprt,
    extract_feasible,
    qprt_bound,
    qprt_solution,
)
from lpbounds.qcsynth import (
    Recursion,
    build_decision_tree,
    certified_error_budget,
    synthesis_pipeline,
)
from lpbounds.rational import min_odd_votes_for_error
from lpbounds.records import replace
from lpbounds.trees import DNode, Leaf, dtree_error, dtree_queried_bits_ok, tree_depth

U2 = BitProductDistribution.uniform(2)
U3 = BitProductDistribution.uniform(3)


def and3_system(gamma=F(1, 64)):
    g = QC_CORPUS["and3"]
    sol = qprt_solution(g, qprt_cached("and3", F(1, 8)))
    t = min_odd_votes_for_error(F(7, 8), gamma)
    boosted = boost_qprt(sol, g, t)
    return g, extract_feasible(boosted, gamma, U3)


def test_dtree_error_leaves():
    g0 = families.const_q(2, 0)
    assert dtree_error(Leaf(0), g0, U2) == 0
    assert dtree_error(Leaf(1), g0, U2) == 1


def test_dtree_error_and2_leaf():
    assert dtree_error(Leaf(0), families.and_q(2), U2) == F(1, 4)


def test_dtree_error_rejects_a_measure_of_another_bit_count():
    with pytest.raises(DimensionMismatchError):
        dtree_error(Leaf(0), families.and_q(2), U3)


def _recursion(g, mu, delta, **fields):
    """The integer state of a build of ``g`` under a system with ``fields``: the others are 0, {} and n."""
    defaults = dict(u={}, w={}, alpha0=F(0), beta0=F(0), alpha1=F(0), beta1=F(0), a=g.n, b=g.n)
    return Recursion(g, mu, FeasibleSystem(n=g.n, **{**defaults, **fields}), delta)


def _masks(pattern):
    cube = Subcube.from_pattern(pattern)
    return cube.support, cube.values


def test_find_biased_subcube_constant():
    g = families.const_q(2, 0)
    build = _recursion(g, U2, F(1, 8), u={full_cube(2): F(1)}, a=2)
    assert build.find_biased_subcube((0, 0), build.u) == (0, 0)


def test_find_biased_subcube_assumption_failure():
    g = families.const_q(2, 1)  # mu_0 = 0: assumption fails, caller answers 1
    build = _recursion(g, U2, F(1, 8), u={full_cube(2): F(1)}, beta0=F(1, 4), a=2)
    with pytest.raises(NoBiasedRectangleError):
        build.find_biased_subcube((0, 0), build.u)


def test_find_biased_subcube_and3():
    g, system = and3_system()
    build = Recursion(g, U3, system, F(1, 8))
    cube = build.find_biased_subcube((0, 0), build.u)
    m0, m1 = U3.label_masses(g, Subcube(3, *cube))
    assert m1 <= F(1, 8) * m0
    assert Subcube(3, *cube) == reference_model.find_biased_subcube(
        g, U3, system.u, system.alpha0, system.beta0, F(1, 8), system.a
    )


def test_elimination_bound_empty():
    build = _recursion(QC_CORPUS["and3"], U3, F(1, 8), beta1=F(1, 8))
    assert build.elimination_bound((0, 0), _masks("0**"), {}) == 0


def test_elimination_bound_full_cube_support():
    # empty support: every subcube is support-disjoint, and a full-cube bias
    # mu_1 <= delta mu_0 keeps the whole 1-mass within beta1 + delta
    # mu_1 = 7/8 -> full cube not biased at delta 1/8
    build = _recursion(QC_CORPUS["or3"], U3, F(1, 8), beta1=F(1, 8))
    with pytest.raises(InfeasibleConstructionError):
        build.elimination_bound((0, 0), (0, 0), {})
    # mu_1 = 1/8 <= (1/7) mu_0: biased at delta 1/7
    build = _recursion(QC_CORPUS["and3"], U3, F(1, 7), w={full_cube(3): F(1, 2)}, beta1=F(1, 2))
    value = build.elimination_bound((0, 0), (0, 0), build.w)
    assert value == F(1, 2) * F(1, 8)
    assert value <= F(1, 2) + F(1, 7)


def test_elimination_bound_and3_pipeline():
    g, system = and3_system()
    build = Recursion(g, U3, system, F(1, 8))
    cube = build.find_biased_subcube((0, 0), build.u)
    value = build.elimination_bound((0, 0), cube, build.w)
    assert value <= system.beta1 + F(1, 8)
    assert value == reference_model.elimination_bound(
        g, U3, Subcube(3, *cube), system.w, system.beta1, F(1, 8)
    )


def test_build_tree_constant_zero():
    g = families.const_q(2, 0)
    sol = qprt_solution(g, qprt_bound(g, F(0)))
    boosted = boost_qprt(sol, g, 3)
    system = extract_feasible(boosted, F(1, 64), U2)
    tree, stats = build_decision_tree(g, U2, system, F(1, 16))
    assert tree == Leaf(0)
    assert dtree_error(tree, g, U2) == 0
    assert stats.guess_leaves == 1


def test_build_tree_budget_zero_balanced():
    # b = 0 with balanced mass: single best leaf, budget formula vacuous
    g = QC_CORPUS["xor2"]
    singles = {
        Subcube.from_pattern("00"): F(1),
        Subcube.from_pattern("11"): F(1),
    }
    system = FeasibleSystem(
        n=2,
        u=singles,  # covers g^-1(0) = {00, 11} exactly, zero on g^-1(1)
        w={full_cube(2): F(1, 2)},
        alpha0=F(0),
        beta0=F(0),
        alpha1=F(1, 2),
        beta1=F(1, 2),
        a=2,
        b=0,
    )
    assert system.verify(g, U2) == []
    tree, stats = build_decision_tree(g, U2, system, F(1, 16))
    assert isinstance(tree, Leaf)
    assert stats.budget_leaves == 1
    assert system.alpha1 + system.beta1 >= 1  # vacuous regime
    assert dtree_error(tree, g, U2) <= certified_error_budget(system, F(1, 16))


def test_build_tree_assumption_leaf():
    # beta0 = 1 makes (1 - alpha0) m0 - (beta0 / delta) m1 = 1/2 - 8 <= 0 at the root,
    # so the tree is the 1-leaf the assumption allows
    g = QC_CORPUS["xor2"]
    system = FeasibleSystem(
        n=2,
        u={Subcube.from_pattern("**"): F(1)},
        w={Subcube.from_pattern("**"): F(1, 2)},
        alpha0=F(0),
        beta0=F(1),
        alpha1=F(1, 2),
        beta1=F(1, 2),
        a=2,
        b=2,
    )
    assert system.verify(g, U2) == []
    tree, stats = build_decision_tree(g, U2, system, F(1, 16))
    assert tree == Leaf(1)
    assert stats.assumption_leaves == 1
    assert dtree_error(tree, g, U2) <= certified_error_budget(system, F(1, 16))


def test_build_tree_margin_leaves():
    # the root queries both bits; with w = {} the 1-margin of the outcomes 01 and 10
    # stays at 1, so they end in margin leaves, while 00 and 11 hold no 1-mass and
    # end in guess leaves
    g = QC_CORPUS["xor2"]
    system = FeasibleSystem(
        n=2,
        u={Subcube.from_pattern("00"): F(1), Subcube.from_pattern("11"): F(1)},
        w={},
        alpha0=F(0),
        beta0=F(0),
        alpha1=F(1),
        beta1=F(0),
        a=2,
        b=2,
    )
    assert system.verify(g, U2) == []
    tree, stats = build_decision_tree(g, U2, system, F(1, 16))
    assert (stats.internal_nodes, stats.margin_leaves, stats.guess_leaves) == (1, 2, 2)
    assert dtree_error(tree, g, U2) <= certified_error_budget(system, F(1, 16))


def test_build_tree_and3_full_guarantees():
    g, system = and3_system()
    delta = F(1, 16)
    tree, stats = build_decision_tree(g, U3, system, delta)
    assert tree_depth(tree) <= system.a * system.b
    assert dtree_error(tree, g, U3) <= certified_error_budget(system, delta)
    assert dtree_queried_bits_ok(tree)


def _and3_tree(delta=F(1, 8), mu=U3, **system_changes):
    """``build_decision_tree`` on and3 with the and3 system changed by ``system_changes``."""
    g, system = and3_system()
    return build_decision_tree(g, mu, replace(system, **system_changes), delta)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _recursion(QC_CORPUS["and3"], U3, F(1, 8)).find_biased_subcube((0, 0), {}),
         NoBiasedRectangleError, "no biased subcube in the support"),
        (lambda: _recursion(QC_CORPUS["and3"], U3, F(1, 16)).elimination_bound(
            (0, 0), _masks("0**"), {(0, 0): 1}),
         InfeasibleConstructionError, "disjoint-support 1-mass 1/8 exceeds beta1 + delta = 1/16"),
        (lambda: _and3_tree(delta=F(0)), DimensionMismatchError, "delta must be positive"),
        (lambda: _and3_tree(alpha0=F(1)),
         DimensionMismatchError, "the 0-side margin alpha0 must lie in [0, 1)"),
        (lambda: _and3_tree(mu=U2), DimensionMismatchError, "bit counts disagree"),
        (lambda: _and3_tree(u={Subcube.from_pattern("1**"): F(-1)}),
         InfeasibleConstructionError, "infeasible system: negative weight on 1**"),
        (lambda: synthesis_pipeline(QC_CORPUS["maj3"], U3, F(1, 2)),
         DimensionMismatchError, "the base error level must be below 1/2"),
        (lambda: synthesis_pipeline(QC_CORPUS["maj3"], U3, F(1, 8), F(0)),
         DimensionMismatchError, "delta must be positive"),
    ],
    ids=["no-biased-subcube", "elimination", "tree-delta", "alpha0", "bit-counts",
         "infeasible-system", "pipeline-eps", "pipeline-delta"],
)
def test_qcsynth_refuses_malformed_input(call, error, message):
    assert_refuses(call, error, message)


@pytest.mark.parametrize(
    "call",
    [
        lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 1, 7),
        lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 2, 19),
        lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 3),
        lambda: _and3_tree(delta=F(0)),
        lambda: _and3_tree(alpha0=F(1)),
        lambda: synthesis_pipeline(QC_CORPUS["maj3"], U3, F(1, 2)),
        lambda: synthesis_pipeline(QC_CORPUS["maj3"], U3, F(1, 8), F(0)),
    ],
    ids=["cc-k", "cc-k19", "cc-part", "tree-delta", "alpha0", "qc-eps", "qc-delta"],
)
def test_synthesis_refusals_of_caller_input_are_lpbounds_errors(call):
    """Typed, and still ValueErrors for callers that catch those."""
    with pytest.raises(LpboundsError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def test_build_tree_refuses_an_error_above_the_certified_budget(monkeypatch):
    monkeypatch.setattr(qcsynth, "certified_error_budget", lambda system, delta: F(-1))
    with pytest.raises(InfeasibleConstructionError, match="exceeds the certified budget -1$"):
        _and3_tree()


def test_queried_bits_ok_refuses_a_path_that_queries_a_bit_twice():
    """A bit queried twice on one path fails, however deep; the same bit in sibling subtrees is fine."""
    assert not dtree_queried_bits_ok(DNode(0, DNode(0, Leaf(0), Leaf(1)), Leaf(1)))
    assert not dtree_queried_bits_ok(DNode(1, Leaf(0), DNode(2, Leaf(1), DNode(1, Leaf(0), Leaf(1)))))
    assert dtree_queried_bits_ok(DNode(0, DNode(1, Leaf(0), Leaf(1)), DNode(1, Leaf(1), Leaf(0))))


def test_pipeline_rejects_a_measure_of_another_bit_count_before_solving(monkeypatch):
    def no_solve(lp):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lpmod, "solve", no_solve)
    with pytest.raises(DimensionMismatchError, match="bit counts disagree: measure 2, function 3"):
        synthesis_pipeline(QC_CORPUS["maj3"], U2)


@pytest.mark.parametrize("delta", [F(0), F(-1, 16)])
def test_pipeline_rejects_a_nonpositive_delta_before_solving(monkeypatch, delta):
    def no_solve(lp):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lpmod, "solve", no_solve)
    with pytest.raises(ValueError, match="delta must be positive"):
        synthesis_pipeline(QC_CORPUS["maj3"], U3, F(1, 8), delta)


def test_pipeline_constant_one():
    g = families.const_q(3, 1)
    rep = synthesis_pipeline(g, U3)
    assert rep.depth == 0 and rep.error == 0


def test_pipeline_or3():
    rep = synthesis_pipeline(QC_CORPUS["or3"], U3)
    assert rep.depth <= rep.depth_bound
    assert rep.error <= rep.error_budget
    assert rep.error <= F(49, 100) or not rep.half_error_certified


def test_pipeline_maj3_runs_deep():
    rep = synthesis_pipeline(QC_CORPUS["maj3"], U3)
    assert rep.depth >= 1  # majority genuinely queries
    assert rep.error <= rep.error_budget
    assert rep.half_error_certified and rep.error <= F(49, 100)


def test_pipeline_measures_the_tree_error_once(monkeypatch):
    """``build_decision_tree`` measures the error for its budget check; the report reads that."""
    calls = []

    def counting_error(tree, g, mu):
        calls.append(tree)
        return dtree_error(tree, g, mu)

    monkeypatch.setattr(qcsynth, "dtree_error", counting_error)
    g = QC_CORPUS["maj3"]
    rep = synthesis_pipeline(g, U3)
    assert calls == [rep.tree]
    assert rep.error == rep.stats.error == dtree_error(rep.tree, g, U3)


def test_pipeline_verifies_the_system_once(monkeypatch):
    """``build_decision_tree`` verifies the extracted system; extraction does not verify it too."""
    calls = []
    verify = FeasibleSystem.verify

    def counting_verify(system, g, mu):
        calls.append(system)
        return verify(system, g, mu)

    monkeypatch.setattr(FeasibleSystem, "verify", counting_verify)
    rep = synthesis_pipeline(QC_CORPUS["maj3"], U3)
    assert calls == [rep.system]


def test_pipeline_expectation_checks_execute():
    g = QC_CORPUS["maj3"]
    sol = qprt_solution(g, qprt_cached("maj3", F(1, 8)))
    gamma = F(1, (8 + 5) ** 8)
    t = min_odd_votes_for_error(F(7, 8), gamma)
    boosted = boost_qprt(sol, g, t)
    system = extract_feasible(boosted, gamma, U3)
    tree, stats = build_decision_tree(g, U3, system, F(1, 13**4))
    assert stats.internal_nodes >= 1
    assert stats.expectation_checks == stats.internal_nodes
    assert len(stats.elimination_values) == stats.internal_nodes


def test_fixed_bits_never_queried():
    g = QC_CORPUS["maj3"]
    mu = BitProductDistribution((F(1), F(1, 2), F(1, 2)))
    rep = synthesis_pipeline(g, mu)

    def bits_used(node, acc):
        if isinstance(node, DNode):
            acc.add(node.bit)
            bits_used(node.child0, acc)
            bits_used(node.child1, acc)
        return acc

    assert 0 not in bits_used(rep.tree, set())
    assert rep.error <= rep.error_budget


def test_condition_overwrites_marginals():
    mu = BitProductDistribution.uniform(3)
    cond = reference_model.condition(mu, 0b011, 0b001)
    assert cond.p == (F(1), F(0), F(1, 2))
    assert cond.fixed_cube() == Subcube(3, 0b011, 0b001)


def _outcome(build, *args):
    """What ``build(*args)`` gives: the tree and every public stats attribute, or the
    refusal's type and message."""
    try:
        tree, stats = build(*args)
    except LpboundsError as exc:
        return type(exc), str(exc)
    return tree, {name: getattr(stats, name) for name in dir(stats) if not name.startswith("_")}


def _assert_builds_alike(g, mu, system, delta):
    got = _outcome(build_decision_tree, g, mu, system, delta)
    assert got == _outcome(reference_model.build_decision_tree, g, mu, system, delta)
    return got


def _skewed(n):
    return BitProductDistribution(tuple(F(i + 1, n + 3) for i in range(n)))


@pytest.mark.parametrize("name", QC_CORPUS)
@pytest.mark.parametrize("measure", ["uniform", "skewed", "fixed"])
def test_build_matches_the_fraction_build_on_pipeline_systems(name, measure):
    """Systems as ``synthesis_pipeline`` extracts them; every bench tree is such a build."""
    g = QC_CORPUS[name]
    mu = {
        "uniform": BitProductDistribution.uniform(g.n),
        "skewed": _skewed(g.n),
        "fixed": BitProductDistribution((F(1),) + (F(1, 3),) * (g.n - 1)),
    }[measure]
    gamma = F(1, 13**8)
    boosted = boost_qprt(qprt_solution(g, qprt_cached(name, F(1, 8))), g,
                         min_odd_votes_for_error(F(7, 8), gamma))
    system = extract_feasible(boosted, gamma, mu)
    for delta in (F(1, 13**4), F(1, 8), F(1, 2)):
        _assert_builds_alike(g, mu, system, delta)


class _Unchecked(FeasibleSystem):
    """A system that passes ``verify`` unread, so that the recursion's own checks refuse it."""

    def verify(self, g, mu):
        return []


def _xor2_unchecked(**fields):
    """xor2 with u on its two 0-points, as ``test_build_tree_margin_leaves`` has it, changed by ``fields``."""
    u = {Subcube.from_pattern("00"): F(1), Subcube.from_pattern("11"): F(1)}
    defaults = dict(n=2, u=u, w={}, alpha0=F(0), beta0=F(0), alpha1=F(1), beta1=F(0), a=2, b=2)
    return _Unchecked(**{**defaults, **fields})


@pytest.mark.parametrize(
    "system, error, message",
    [
        (_xor2_unchecked(u={full_cube(2): F(1)}), NoBiasedRectangleError, "no biased subcube in the support"),
        (_xor2_unchecked(w={full_cube(2): F(1)}),
         InfeasibleConstructionError, "disjoint-support 1-mass 1/2 exceeds beta1 + delta = 1/16"),
        # both 1-points end in margin leaves, alpha1^sigma = 1, against alpha1 = 0
        (_xor2_unchecked(alpha1=F(0)), InfeasibleConstructionError, "outcome-averaged margin 1/2 exceeds 1/8"),
    ],
    ids=["no-biased-subcube", "elimination", "expectation"],
)
def test_build_refuses_as_the_fraction_build_does(system, error, message):
    g = QC_CORPUS["xor2"]
    assert_refuses(lambda: build_decision_tree(g, U2, system, F(1, 16)), error, message)
    _assert_builds_alike(g, U2, system, F(1, 16))


@st.composite
def _build_inputs(draw):
    """A function of n <= 4 bits, a bit-product measure and a system on its free bits.

    ``u`` draws its subcubes mostly from those whose points (where mu is
    positive) all have label 0, and ``w`` from those all of label 1, so
    that the recursion queries; a few others come at random.  Half of the
    systems get the margins that make them verify, as ``extract_feasible``'s
    do; the others get margins at random and skip ``verify``, so that the
    recursion's own checks refuse some of them.
    """
    n = draw(st.integers(1, 4))
    full = (1 << n) - 1
    rng = draw(st.randoms(use_true_random=False))
    g = QueryFunction(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
    marginals = draw(st.sampled_from([
        st.just(F(1, 2)),
        st.integers(1, 7).map(lambda k: F(k, 8)),
        st.sampled_from([F(0), F(1), F(1, 3), F(3, 4)]),
    ]))
    mu = BitProductDistribution(tuple(draw(marginals) for _ in range(n)))
    fixed = mu.fixed_cube()
    points = list(fixed.members())
    cubes = [c for c in enumerate_subcubes(n) if not c.support & fixed.support]
    pure = [[c for c in cubes if all(g.value(x) == z for x in points if c.contains(x))] for z in (0, 1)]
    checked = draw(st.booleans())

    def family(z, most):
        chosen = draw(st.lists(st.sampled_from(pure[z]), max_size=6)) if pure[z] else []
        chosen += draw(st.lists(st.sampled_from(cubes), max_size=2))
        weight = st.integers(1 if checked else -1, most).map(lambda k: F(k, 8))
        return {c: draw(weight) for c in chosen}

    u, w = family(0, 8), family(1, 2 if checked else 8)
    if checked:  # every point of label 0 covered, so that alpha0 < 1
        free = full ^ fixed.support
        u.update({Subcube(n, free, x & free): F(1, 8) for x in points if g.value(x) == 0})
    margin = st.sampled_from([F(0), F(1, 16), F(1, 4), F(1)])
    fields = dict(n=n, u=u, w=w, alpha0=draw(st.sampled_from([F(0), F(1, 8), F(1, 2)])),
                  beta0=draw(margin), alpha1=draw(margin), beta1=draw(margin),
                  a=draw(st.one_of(st.just(n), st.integers(0, n))), b=draw(st.integers(0, n)))
    if checked:
        um, wm = ([sum((v for c, v in weights.items() if c.contains(x)), F(0)) for x in points]
                  for weights in (u, w))
        zeros = [i for i, x in enumerate(points) if g.value(x) == 0]
        ones = [i for i, x in enumerate(points) if g.value(x) == 1]
        mu1 = mu.label_masses(g, full_cube(n))[1]
        fields.update(
            alpha0=max([F(0)] + [1 - um[i] for i in zeros]),
            beta0=max([F(0)] + [um[i] for i in ones]),
            beta1=max([F(0)] + [wm[i] for i in zeros]),
            alpha1=1 - reference_model.weighted_masses(mu, g, w)[1] / mu1 if mu1 else F(0),
            a=max([0] + [c.size for c in u]),
            b=max([fields["b"]] + [c.size for c in w]),
        )
    system = (FeasibleSystem if checked else _Unchecked)(**fields)
    delta = draw(st.sampled_from([F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1)]))
    return g, mu, system, delta


@settings(max_examples=300, deadline=None)
@given(_build_inputs())
def test_build_matches_the_fraction_build(inputs):
    """Same tree, same ``BuildStats`` field by field, or the same refusal: type and message."""
    _assert_builds_alike(*inputs)
