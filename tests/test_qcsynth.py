import dataclasses
from fractions import Fraction as F

import pytest
from conftest import CC_CORPUS, QC_CORPUS, UNIFORM_4x4, assert_refuses, qprt_cached

from lpbounds import families, qcsynth
from lpbounds import lp as lpmod
from lpbounds.ccsynth import protocol_pipeline
from lpbounds.errors import (
    DimensionMismatchError,
    InfeasibleConstructionError,
    LpboundsError,
    NoBiasedRectangleError,
)
from lpbounds.model import BitProductDistribution, Subcube, full_cube
from lpbounds.qcbounds import (
    FeasibleSystem,
    boost_qprt,
    extract_feasible,
    qprt_bound,
    qprt_solution,
)
from lpbounds.qcsynth import (
    build_decision_tree,
    elimination_bound,
    find_biased_subcube,
    certified_error_budget,
    synthesis_pipeline,
)
from lpbounds.rational import min_odd_votes_for_error
from lpbounds.trees import DNode, Leaf, dtree_error, dtree_queried_bits_ok, tree_depth

U2 = BitProductDistribution.uniform(2)
U3 = BitProductDistribution.uniform(3)


def and3_system(gamma=F(1, 64)):
    g = QC_CORPUS["and3"]
    sol = qprt_solution(g, qprt_cached("and3", F(1, 8)))
    t = min_odd_votes_for_error(F(7, 8), gamma)
    boosted = boost_qprt(sol, g, t)
    return g, extract_feasible(boosted, gamma, g, U3)


def test_dtree_error_leaves():
    g0 = families.const_q(2, 0)
    assert dtree_error(Leaf(0), g0, U2) == 0
    assert dtree_error(Leaf(1), g0, U2) == 1


def test_dtree_error_and2_leaf():
    assert dtree_error(Leaf(0), families.and_q(2), U2) == F(1, 4)


def test_dtree_error_rejects_a_measure_of_another_bit_count():
    with pytest.raises(DimensionMismatchError):
        dtree_error(Leaf(0), families.and_q(2), U3)


def test_find_biased_subcube_constant():
    g = families.const_q(2, 0)
    u = {full_cube(2): F(1)}
    cube = find_biased_subcube(g, U2, u, F(0), F(0), F(1, 8), 2)
    assert cube == full_cube(2)


def test_find_biased_subcube_assumption_failure():
    g = families.const_q(2, 1)  # mu_0 = 0: assumption fails, caller answers 1
    u = {full_cube(2): F(1)}
    with pytest.raises(NoBiasedRectangleError):
        find_biased_subcube(g, U2, u, F(0), F(1, 4), F(1, 8), 2)


def test_find_biased_subcube_and3():
    g, system = and3_system()
    cube = find_biased_subcube(
        g, U3, system.u, system.alpha0, system.beta0, F(1, 8), system.a
    )
    m0, m1 = U3.label_masses(g, cube)
    assert m1 <= F(1, 8) * m0


def test_elimination_bound_empty():
    g = QC_CORPUS["and3"]
    biased = Subcube.from_pattern("0**")
    assert elimination_bound(g, U3, biased, {}, F(1, 8), F(1, 8)) == 0


def test_elimination_bound_full_cube_support():
    # empty support: every subcube is support-disjoint, and a full-cube bias
    # mu_1 <= delta mu_0 keeps the whole 1-mass within beta1 + delta
    g = QC_CORPUS["or3"]  # mu_1 = 7/8 -> full cube not biased at delta 1/8
    with pytest.raises(InfeasibleConstructionError):
        elimination_bound(g, U3, full_cube(3), {}, F(1, 8), F(1, 8))
    g_and = QC_CORPUS["and3"]  # mu_1 = 1/8 <= (1/7) mu_0: biased at delta 1/7
    w = {full_cube(3): F(1, 2)}
    value = elimination_bound(g_and, U3, full_cube(3), w, F(1, 2), F(1, 7))
    assert value == F(1, 2) * F(1, 8)
    assert value <= F(1, 2) + F(1, 7)


def test_elimination_bound_and3_pipeline():
    g, system = and3_system()
    cube = find_biased_subcube(
        g, U3, system.u, system.alpha0, system.beta0, F(1, 8), system.a
    )
    value = elimination_bound(g, U3, cube, system.w, system.beta1, F(1, 8))
    assert value <= system.beta1 + F(1, 8)


def test_build_tree_constant_zero():
    g = families.const_q(2, 0)
    sol = qprt_solution(g, qprt_bound(g, F(0)))
    boosted = boost_qprt(sol, g, 3)
    system = extract_feasible(boosted, F(1, 64), g, U2)
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
    return build_decision_tree(g, mu, dataclasses.replace(system, **system_changes), delta)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: find_biased_subcube(QC_CORPUS["and3"], U3, {}, F(0), F(0), F(1, 8), 3),
         NoBiasedRectangleError, "no biased subcube in the support"),
        (lambda: elimination_bound(QC_CORPUS["and3"], U3, Subcube.from_pattern("0**"), {full_cube(3): F(1)},
                                   F(0), F(1, 16)),
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

def test_pipeline_expectation_checks_execute():
    g = QC_CORPUS["maj3"]
    sol = qprt_solution(g, qprt_cached("maj3", F(1, 8)))
    gamma = F(1, (8 + 5) ** 8)
    t = min_odd_votes_for_error(F(7, 8), gamma)
    boosted = boost_qprt(sol, g, t)
    system = extract_feasible(boosted, gamma, g, U3)
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
