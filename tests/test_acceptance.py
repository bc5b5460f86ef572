"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is an exact rational (in)equality; no tolerances appear
anywhere.  Criterion 1 carries the only runtime requirement (60 seconds
for the duality sweep) and therefore runs on cold caches -- this module
sorts first in collection order.
"""

import math
import time
from fractions import Fraction as F

import pytest
from conftest import (
    CC_CORPUS,
    QC_CORPUS,
    UNIFORM_4x4,
    chain_cached,
    qprt_cached,
    sample_product_distributions,
    srec_cached,
)
from reference_boost import reference_majority_error
from reference_model import point_masses

from lpbounds import families
from lpbounds.ccbounds import (
    SrecInstance,
    build_prt_lp,
    build_rprt_lp,
    build_srec_lp,
    partition_weights,
    reduce_prt_error,
    srec_bound,
    srec_weights,
)
from lpbounds.ccsynth import (
    SynthParams,
    balance,
    balance_depth_target,
    minimum_s,
    minimum_t,
    synthesize,
    protocol_pipeline,
)
from lpbounds.lp import check_dual_feasible, check_feasible, dual_objective
from lpbounds.model import BitProductDistribution
from lpbounds.oracle import ORACLE_CC_MAX_DEPTH, oracle_cc, oracle_qc
from lpbounds.qcbounds import _cube_family, boost_qprt, build_qprt_lp, qprt_solution
from lpbounds.qcbounds import qprt_bound as qprt_bound_direct
from lpbounds.qcsynth import certified_error_budget, synthesis_pipeline
from lpbounds.trees import advantage, dtree_error, evaluate, leaf_count, protocol_error, tree_depth

EPS8 = F(1, 8)
SEED = 20260810


def _report(capsys, criterion: str, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion}: PASS{tail}"
    with capsys.disabled():  # keep the line visible under fd-level capture
        print("\n" + line, flush=True)


# ---------------------------------------------------------------------------
# shared synthesized artifacts (criteria 3, 4, 7)


@pytest.fixture(scope="module")
def cc_artifacts():
    """Corpus protocol synthesis runs: part-1, deep non-vacuous, part-2."""
    runs = []
    for name, f in CC_CORPUS.items():
        rep = protocol_pipeline(f, UNIFORM_4x4, 1)
        assert rep.hypothesis_ok and rep.tree is not None
        runs.append((f"{name}/part1", f, rep))
    # non-vacuous deep runs: tiny fourth-power delta keeps the floor positive
    for name in ("xor2", "gt2"):
        f = CC_CORPUS[name]
        q = F(1, 1 << 17)
        delta = q**4
        r0 = srec_bound(SrecInstance(f, 0, F(0), delta, UNIFORM_4x4))
        r1 = srec_bound(SrecInstance(f, 1, F(0), delta, UNIFORM_4x4))
        s = minimum_s(r0.value, r1.value)
        big_delta = F(1, 1 << 20)
        t = minimum_t(s, UNIFORM_4x4.total, big_delta)
        params = SynthParams(F(0), delta, q, big_delta, s, t)
        tree = synthesize(f, UNIFORM_4x4, params, srec_weights(r0), srec_weights(r1))
        runs.append((f"{name}/deep", f, (params, tree)))
    return runs


@pytest.fixture(scope="module")
def qc_artifacts():
    """Corpus decision-tree pipeline runs over uniform bit measures."""
    runs = []
    for name, g in QC_CORPUS.items():
        mu = BitProductDistribution.uniform(g.n)
        rep = synthesis_pipeline(g, mu, F(1, 8))
        runs.append((name, g, mu, rep))
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_lp_duality(capsys):
    """Primal value = dual value exactly, every corpus function and LP kind."""
    started = time.monotonic()
    checked = 0
    for name, f in CC_CORPUS.items():
        rep = chain_cached(name, EPS8)
        for sol, lp in [
            (rep.prt, build_prt_lp(f, EPS8)),
            (rep.rprt, build_rprt_lp(f, EPS8)),
            (rep.srec0, build_srec_lp(SrecInstance(f, 0, EPS8, EPS8))),
            (rep.srec1, build_srec_lp(SrecInstance(f, 1, EPS8, EPS8))),
        ]:
            assert check_feasible(lp, sol.primal) == []
            assert check_dual_feasible(lp, sol.dual) == []
            assert dual_objective(lp, sol.dual) == sol.value
            checked += 1
        dist = srec_cached(name, 1, EPS8, EPS8, True)
        lp = build_srec_lp(SrecInstance(f, 1, EPS8, EPS8, UNIFORM_4x4))
        assert dual_objective(lp, dist.dual) == dist.value
        assert check_dual_feasible(lp, dist.dual) == []
        checked += 1
    for name, g in QC_CORPUS.items():
        res = qprt_cached(name, EPS8)
        lp = build_qprt_lp(g, EPS8)
        assert check_feasible(lp, res.primal) == []
        assert check_dual_feasible(lp, res.dual) == []
        assert dual_objective(lp, res.dual) == res.value
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"duality sweep took {elapsed:.1f}s"
    _report(capsys, "1 lp-duality", f"{checked} solves, {elapsed:.1f}s")


def test_criterion_2_chain_inequality(capsys):
    for name in CC_CORPUS:
        for eps in (F(0), EPS8, F(1, 3)):
            rep = chain_cached(name, eps)
            prt, rprt, srec = rep.values
            assert prt >= rprt >= srec, (name, eps)
    _report(capsys, "2 chain prt>=rprt>=srec", "eps in {0, 1/8, 1/3}")


def test_criterion_3_induction_guarantees(cc_artifacts, capsys):
    for tag, f, payload in cc_artifacts:
        params, tree = payload if isinstance(payload, tuple) else (payload.params, payload.tree)
        s, t = params.s, params.t
        leaves = leaf_count(tree)
        assert leaves <= 4 * math.comb(s + t, min(s, t)) - 1, tag
        adv = advantage(tree, f, UNIFORM_4x4)
        coeff = F(1, 10) - params.eps - 30 * (s + 1) * params.delta_root
        floor = coeff * UNIFORM_4x4.total - params.big_delta * leaves
        assert adv >= floor, tag
    # part 2 with a k that satisfies the premise: probe values first
    for name in ("gt2", "and2"):
        f = CC_CORPUS[name]
        probe = protocol_pipeline(f, UNIFORM_4x4, 2, k=500)
        assert probe.hypothesis_ok and probe.leaves is not None
        assert probe.leaves <= 1 << (4 * 500 * 500)
        assert probe.tree is not None and probe.adv_floor is not None
        assert advantage(probe.tree, f, UNIFORM_4x4) >= probe.adv_floor
    _report(capsys, "3 induction L and advantage", f"{len(cc_artifacts)}+2 runs")


def test_criterion_4_balancing(cc_artifacts, capsys):
    checked = 0
    for tag, f, payload in cc_artifacts:
        tree = payload[1] if isinstance(payload, tuple) else payload.tree
        balanced = balance(tree, f.nx, f.ny)
        for x in range(f.nx):
            for y in range(f.ny):
                assert evaluate(balanced, x, y) == evaluate(tree, x, y), tag
        assert tree_depth(balanced) <= balance_depth_target(leaf_count(tree)), tag
        checked += 1
    _report(capsys, "4 balancing", f"{checked} trees, 16-cell pointwise")


def test_criterion_5_decision_tree_guarantees(qc_artifacts, capsys):
    for name, g, mu, rep in qc_artifacts:
        assert rep.depth <= rep.system.a * rep.system.b, name
        measured = dtree_error(rep.tree, g, mu)
        assert measured == rep.error
        assert measured <= certified_error_budget(rep.system, rep.delta), name
        # the per-node expectation bound ran at every internal node
        assert rep.stats.expectation_checks == rep.stats.internal_nodes, name
        assert len(rep.stats.elimination_values) == rep.stats.internal_nodes
    _report(capsys, "5 decision-tree guarantees", f"{len(qc_artifacts)} pipelines")


def test_criterion_6_boosting_soundness(capsys):
    # query side
    for fam in ("and", "xor"):
        g = families.make_function(fam, 2, "qc")
        base_lp = qprt_bound_direct(g, EPS8)
        base = qprt_solution(g, base_lp)
        for t in (1, 3):
            boosted = boost_qprt(base, g, t)
            level = boosted.achieved_error
            assert level <= reference_majority_error(1 - EPS8, t)
            lp = build_qprt_lp(g, level)
            assign = {
                f"w{z}_{c.pattern()}": w
                for (z, c), w in boosted.solution.weights.items()
            }
            assert check_feasible(lp, assign) == []
            total, _ = point_masses(_cube_family(g.n), boosted.solution.weights, g.table)
            assert total == [1] * (1 << g.n)
            assert boosted.objective <= base_lp.value**t
    # communication side
    for fam in ("and", "xor"):
        f = families.make_function(fam, 2, "cc")
        from lpbounds.ccbounds import prt_bound

        base = prt_bound(f, EPS8)
        weights = partition_weights(base)
        for t in (1, 3):
            red = reduce_prt_error(weights, f, t)
            lp = build_prt_lp(f, red.achieved_error)
            assign = {
                f"w{z}_{r.rows:x}_{r.cols:x}": w for (z, r), w in red.weights.items()
            }
            assert check_feasible(lp, assign) == []
            assert red.objective <= base.value**t
    _report(capsys, "6 boosting soundness", "qprt+prt, t in {1,3}, AND_2/XOR_2")


def test_criterion_7_oracle_sandwich(cc_artifacts, qc_artifacts, capsys):
    # frozen spot values, confirmed by the oracle itself before freezing
    spot_cc = oracle_cc(CC_CORPUS["eq2"], UNIFORM_4x4, 0)
    assert spot_cc.best_error == F(1, 4)
    spot_qc = oracle_qc(QC_CORPUS["xor2"], BitProductDistribution.uniform(2), 1)
    assert spot_qc.best_error == F(1, 2)

    for tag, f, payload in cc_artifacts:
        tree = payload[1] if isinstance(payload, tuple) else payload.tree
        budget = min(tree_depth(tree), ORACLE_CC_MAX_DEPTH)
        res = oracle_cc(f, UNIFORM_4x4, budget)
        measured = protocol_error(tree, f, UNIFORM_4x4)
        assert res.best_error <= measured, tag
        assert protocol_error(res.witness, f, UNIFORM_4x4) == res.best_error, tag
    for name, g, mu, rep in qc_artifacts:
        budget = min(rep.depth, g.n)
        res = oracle_qc(g, mu, budget)
        assert res.best_error <= rep.error, name
        assert dtree_error(res.witness, g, mu) == res.best_error, name
    _report(capsys, "7 oracle sandwich", "witness replay exact")


def test_criterion_8_minmax_direction(capsys):
    checked = 0
    for name, f in CC_CORPUS.items():
        worst = {z: srec_cached(name, z, EPS8, EPS8, False).value for z in (0, 1)}
        for i, mu in enumerate(sample_product_distributions(4, 4, 10, SEED)):
            for z in (0, 1):
                dist = srec_bound(SrecInstance(f, z, EPS8, EPS8, mu))
                assert dist.value <= worst[z], (name, i, z)
                checked += 1
    _report(capsys, "8 minmax direction", f"{checked} distributional solves")


def test_criterion_9_determinism(tmp_path, capsys):
    """Two consecutive runs of the report-producing suite are byte-identical."""
    from lpbounds import serialize
    from lpbounds.cli import run_bounds, run_synth_cc, run_synth_qc

    fn_cc = tmp_path / "and2.cc"
    fn_qc = tmp_path / "xor2.qc"
    dist = tmp_path / "u.dist"
    bits = tmp_path / "u.bits"
    fn_cc.write_text(serialize.write_function(CC_CORPUS["and2"]))
    fn_qc.write_text(serialize.write_function(QC_CORPUS["xor2"]))
    dist.write_text(serialize.write_distribution(UNIFORM_4x4))
    bits.write_text(serialize.write_distribution(BitProductDistribution.uniform(2)))

    def run_suite() -> bytes:
        records = []
        records += run_bounds(
            {"function": str(fn_cc), "which": "chain", "eps": "1/3"}
        )
        records += run_bounds(
            {"function": str(fn_qc), "which": "qprt", "eps": "1/8"}
        )
        recs, tree = run_synth_cc(
            {"function": str(fn_cc), "dist": str(dist), "part": "1", "k": None}
        )
        records += recs
        records.append({"tree": tree})
        recs, dtree = run_synth_qc(
            {"function": str(fn_qc), "dist": str(bits), "eps": None, "delta": None}
        )
        records += recs
        records.append({"tree": dtree})
        return serialize.dump_records(records).encode()

    first = run_suite()
    second = run_suite()
    assert first == second
    _report(capsys, "9 determinism", f"{len(first)} report bytes, byte-identical")
