from fractions import Fraction as F

import pytest
from conftest import CC_CORPUS, QC_CORPUS, UNIFORM_4x4
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracle import reference_oracle_cc, reference_oracle_qc

from lpbounds import families
from lpbounds.errors import CapExceededError, DimensionMismatchError
from lpbounds.model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    TwoPartyFunction,
)
from lpbounds.oracle import ORACLE_CC_MAX_DEPTH, oracle_cc, oracle_qc
from lpbounds.trees import Leaf, PNode, dtree_error, protocol_error

U2 = BitProductDistribution.uniform(2)


def test_cc_constant_zero_any_budget():
    f = families.const2p(2, 0)
    for budget in range(4):
        assert oracle_cc(f, UNIFORM_4x4, budget).best_error == 0


def test_cc_eq2_budget_zero():
    # best single leaf answers 0 and errs on the 4 diagonal cells
    res = oracle_cc(CC_CORPUS["eq2"], UNIFORM_4x4, 0)
    assert res.best_error == min(F(12, 16), F(4, 16)) == F(1, 4)
    assert res.witness == Leaf(0)


def test_cc_eq2_exact_at_small_depth():
    # explicit upper bound: two row bits from one party, then an answer split
    f = CC_CORPUS["eq2"]
    by_row = {
        x: PNode("B", 1 << x, Leaf(1), Leaf(0)) for x in range(4)
    }
    manual = PNode(
        "A",
        0b0011,
        PNode("A", 0b0001, by_row[0], by_row[1]),
        PNode("A", 0b0100, by_row[2], by_row[3]),
    )
    assert protocol_error(manual, f, UNIFORM_4x4) == 0
    for budget in (3, 4):
        assert oracle_cc(f, UNIFORM_4x4, budget).best_error == 0


def test_cc_monotone_and_replay():
    f = CC_CORPUS["gt2"]
    errs = []
    for budget in range(5):
        res = oracle_cc(f, UNIFORM_4x4, budget)
        errs.append(res.best_error)
        assert protocol_error(res.witness, f, UNIFORM_4x4) == res.best_error
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_cc_caps():
    f = families.eq(3)
    with pytest.raises(CapExceededError):
        oracle_cc(f, ProductDistribution2P.uniform(8, 8), 2)
    with pytest.raises(CapExceededError):
        oracle_cc(CC_CORPUS["eq2"], UNIFORM_4x4, 5)


def test_qc_constant_one_budget_zero():
    g = families.const_q(2, 1)
    assert oracle_qc(g, U2, 0).best_error == 0


def test_qc_xor2_budgets():
    g = QC_CORPUS["xor2"]
    # one query leaves an unbiased parity of the remaining bit on each side
    assert oracle_qc(g, U2, 1).best_error == F(1, 2)
    assert oracle_qc(g, U2, 2).best_error == 0


def test_qc_monotone_and_replay():
    g = QC_CORPUS["maj3"]
    mu = BitProductDistribution.uniform(3)
    errs = []
    for budget in range(4):
        res = oracle_qc(g, mu, budget)
        errs.append(res.best_error)
        assert dtree_error(res.witness, g, mu) == res.best_error
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0


def test_qc_cap():
    g = families.xor_q(11)
    with pytest.raises(CapExceededError):
        oracle_qc(g, BitProductDistribution.uniform(11), 1)


def test_negative_depth_rejected():
    with pytest.raises(DimensionMismatchError, match="oracle depth must be >= 0"):
        oracle_cc(CC_CORPUS["eq2"], UNIFORM_4x4, -1)
    with pytest.raises(DimensionMismatchError, match="oracle depth must be >= 0"):
        oracle_qc(QC_CORPUS["xor2"], U2, -1)


# Differential tests against the two searches the shared one replaced.


@pytest.mark.parametrize("name", sorted(CC_CORPUS))
def test_cc_search_matches_reference_on_corpus(name):
    """Depth 4 on a 4x4 table is where the pruned search skips the most moves."""
    f = CC_CORPUS[name]
    for depth in range(ORACLE_CC_MAX_DEPTH + 1):
        assert oracle_cc(f, UNIFORM_4x4, depth) == reference_oracle_cc(f, UNIFORM_4x4, depth)


@pytest.mark.parametrize("name", sorted(QC_CORPUS))
def test_qc_search_matches_reference_on_corpus(name):
    g = QC_CORPUS[name]
    mu = BitProductDistribution.uniform(g.n)
    for depth in range(g.n + 2):
        assert oracle_qc(g, mu, depth) == reference_oracle_qc(g, mu, depth)


# weights k/d in [0, 1] for d in 1..12, so one measure mixes denominators
WEIGHTS = st.integers(1, 12).flatmap(lambda d: st.builds(F, st.integers(0, d), st.just(d)))


@st.composite
def cc_instances(draw):
    side = draw(st.sampled_from([2, 4]))
    bits = st.lists(st.integers(0, 1), min_size=side, max_size=side).map(tuple)
    table = tuple(draw(bits) for _ in range(side))
    weights = st.lists(WEIGHTS, min_size=side, max_size=side).map(tuple)
    return TwoPartyFunction(table), ProductDistribution2P(draw(weights), draw(weights))


@st.composite
def qc_instances(draw):
    n = draw(st.integers(1, 4))
    table = tuple(draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)))
    p = tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    return QueryFunction(n, table), BitProductDistribution(p)


@settings(max_examples=40, deadline=None)
@given(cc_instances())
def test_cc_search_matches_reference(instance):
    f, mu = instance
    for depth in range(ORACLE_CC_MAX_DEPTH + 1):
        assert oracle_cc(f, mu, depth) == reference_oracle_cc(f, mu, depth)


@settings(max_examples=100, deadline=None)
@given(qc_instances())
def test_qc_search_matches_reference(instance):
    g, mu = instance
    for depth in range(g.n + 2):
        assert oracle_qc(g, mu, depth) == reference_oracle_qc(g, mu, depth)
