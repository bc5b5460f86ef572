from fractions import Fraction as F

import pytest
import reference_lp
from conftest import CC_CORPUS, UNIFORM_4x4, assert_refuses, chain_cached, srec_cached
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_boost import reference_majority_error
from reference_duals import build_prt_dual_lp, build_rprt_dual_lp, split_free

from lpbounds import ccbounds, families, serialize
from lpbounds.ccbounds import (
    SrecInstance,
    build_prt_lp,
    build_rprt_lp,
    build_srec_lp,
    partition_weights,
    prt_bound,
    reduce_prt_error,
    rprt_bound,
    srec_bound,
)
from lpbounds.errors import DimensionMismatchError, InfeasibleConstructionError
from lpbounds.lp import check_feasible, dual_objective, solve
from lpbounds.model import ProductDistribution2P, TwoPartyFunction
from lpbounds.rational import format_rational, log2_bracket
from lpbounds.serialize import bound_record


@pytest.mark.parametrize("eps", [F(-1, 8), F(3, 2)])
@pytest.mark.parametrize("build", [build_prt_lp, build_rprt_lp, build_prt_dual_lp, build_rprt_dual_lp])
def test_partition_programs_reject_eps_outside_unit_interval(build, eps):
    with pytest.raises(DimensionMismatchError):
        build(families.and2p(2), eps)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SrecInstance(CC_CORPUS["eq2"], 2, F(0), F(0)), "z must be 0 or 1, got 2"),
        (lambda: SrecInstance(CC_CORPUS["eq2"], 0, F(0), F(0), ProductDistribution2P.uniform(2, 2)),
         "measure is 2x2 but function is 4x4"),
    ],
    ids=["z", "measure-shape"],
)
def test_srec_instance_refuses_malformed_input(call, message):
    assert_refuses(call, DimensionMismatchError, message)


def test_constant_function_zero_error_srec_is_one():
    # the full rectangle at weight 1 is feasible; any feasible solution has
    # total weight at least the weight through one covered point, which the
    # covering row pins to at least 1
    f = families.const2p(2, 0)
    res = srec_bound(SrecInstance(f, 0, F(0), F(0)))
    assert res.value == 1


def test_eps_one_gives_zero():
    f = families.eq(2)
    assert srec_bound(SrecInstance(f, 1, F(1), F(0))).value == 0
    assert rprt_bound(f, F(1)).value == 0


def test_eq2_worst_case_value():
    res = srec_cached("eq2", 1, F(0), F(0), False)
    assert res.value == 4  # diagonal-singleton derivation, see test_lp


def test_prt_constant_zero():
    f = families.const2p(2, 0)
    res = prt_bound(f, F(0))
    assert res.value == 1


def test_prt_at_least_rprt_eq2():
    prt = prt_bound(CC_CORPUS["eq2"], F(1, 8))
    rprt = rprt_bound(CC_CORPUS["eq2"], F(1, 8))
    assert prt.value >= rprt.value


def test_chain_trivial_cases():
    # at eps = 1 covering is free: rprt and srec drop to 0, while the
    # exact-mass constraint keeps prt pinned at 1; the chain still holds
    rep = chain_cached("and2", F(1))
    assert rep.values == (1, 0, 0)


def test_chain_constant_zero_is_all_ones():
    from lpbounds.ccbounds import check_chain

    f = families.const2p(2, 0)
    rep = check_chain(f, F(0))
    assert rep.values == (1, 1, 1)


def test_chain_xor2():
    rep = chain_cached("xor2", F(1, 8))
    prt, rprt, srec = rep.values
    assert prt >= rprt >= srec


def test_srec_monotone_in_eps_and_delta():
    # non-increasing in eps and in delta on every corpus function
    grid = [F(0), F(1, 8), F(1, 4), F(1, 2)]
    deltas = [F(0), F(1, 4)]
    for name in CC_CORPUS:
        values = {
            (eps, delta): srec_cached(name, 1, eps, delta, False).value
            for eps in grid
            for delta in deltas
        }
        for delta in deltas:
            column = [values[(eps, delta)] for eps in grid]
            assert all(a >= b for a, b in zip(column, column[1:])), name
        for eps in grid:
            assert values[(eps, F(0))] >= values[(eps, F(1, 4))], name


def test_distributional_at_most_worst_case():
    f = CC_CORPUS["and2"]
    wc = srec_bound(SrecInstance(f, 1, F(1, 8), F(1, 8))).value
    dist = srec_bound(SrecInstance(f, 1, F(1, 8), F(1, 8), UNIFORM_4x4)).value
    assert dist <= wc


def _map_partition_duals(plp, duals, relaxed):
    """Solver row duals -> the explicit dual's (mu, phi) variables.

    The relaxed dual's phi enters negatively with phi >= 0, so the <=-row
    duals (which are nonpositive) flip sign; a free phi is split into its
    two nonnegative columns.
    """
    sign = -1 if relaxed else 1
    assign = {}
    for i, row in enumerate(plp.rows):
        kind, x, y = row.label.split("_")
        if kind == "cov":
            assign[f"mu_{x}_{y}"] = duals[i]
        else:
            assign[f"phi_{x}_{y}"] = sign * duals[i]
    return split_free(assign)


def test_partition_duals_certify_optimality():
    # weak duality: a feasible point of the explicitly built dual whose
    # objective equals the primal optimum certifies both solves
    f = CC_CORPUS["and2"]
    eps = F(1, 8)
    for build_primal, build_dual, relaxed in [
        (build_prt_lp, build_prt_dual_lp, False),
        (build_rprt_lp, build_rprt_dual_lp, True),
    ]:
        plp = build_primal(f, eps)
        primal = solve(plp)
        dlp = build_dual(f, eps)
        assign = _map_partition_duals(plp, primal.dual, relaxed)
        assert check_feasible(dlp, assign) == []
        assert -dlp.objective_value(assign) == primal.value
        assert dual_objective(plp, primal.dual) == primal.value


def test_partition_dual_solves_match_on_2x2():
    f = families.eq(1)
    eps = F(1, 8)
    for build_primal, build_dual in [
        (build_prt_lp, build_prt_dual_lp),
        (build_rprt_lp, build_rprt_dual_lp),
    ]:
        primal = solve(build_primal(f, eps))
        dual = reference_lp.reference_solve(build_dual(f, eps))
        assert -dual.value == primal.value


def test_reduce_error_identity_at_one_vote():
    f = CC_CORPUS["and2"]
    w = partition_weights(prt_bound(f, F(1, 4)))
    red = reduce_prt_error(w, f, 1)
    assert red.weights == {k: v for k, v in w.items() if v != 0}
    assert red.achieved_error <= F(1, 4)


def test_reduce_error_three_votes_feasible_at_binomial_level():
    f = CC_CORPUS["and2"]
    base = prt_bound(f, F(1, 4))
    w = partition_weights(base)
    red = reduce_prt_error(w, f, 3)  # re-verifies mass, covering, objective
    assert red.achieved_error <= reference_majority_error(F(3, 4), 3)
    assert red.objective <= base.value**3
    # independent re-check through the LP at the achieved level
    lp = build_prt_lp(f, red.achieved_error)
    assign = {f"w{z}_{r.rows:x}_{r.cols:x}": wt for (z, r), wt in red.weights.items()}
    assert check_feasible(lp, assign) == []


def test_reduce_error_rejects_even_votes():
    f = CC_CORPUS["and2"]
    w = partition_weights(prt_bound(f, F(1, 4)))
    with pytest.raises(ValueError):
        reduce_prt_error(w, f, 2)


def test_reduce_error_rejects_relaxed_solutions():
    f = CC_CORPUS["and2"]
    w = partition_weights(rprt_bound(f, F(1, 3)))
    total_masses = {
        (x, y): sum(wt for (z, r), wt in w.items() if r.contains(x, y))
        for x in range(4)
        for y in range(4)
    }
    # the solve is deterministic: its relaxed optimum leaves a cell at mass 2/3
    assert set(total_masses.values()) == {F(2, 3), F(1)}
    with pytest.raises(InfeasibleConstructionError):
        reduce_prt_error(w, f, 3)


def test_bound_record_log_bracket():
    res = srec_cached("eq2", 1, F(0), F(0), False)
    rec = bound_record("srec", "h", {}, res)
    assert rec["log2_lo"] == rec["log2_hi"] == "2"  # value 4
    res2 = srec_bound(SrecInstance(CC_CORPUS["eq2"], 1, F(1), F(0)))
    rec2 = bound_record("srec", "h", {}, res2)
    assert rec2["value"] == "0" and rec2["log2_lo"] is None and rec2["log2_hi"] is None


def test_the_log_bracket_is_worked_out_only_by_the_record(monkeypatch):
    """A bound that is never printed never brackets its log2; its record brackets it once."""
    calls = []
    monkeypatch.setattr(serialize, "log2_bracket",
                        lambda r, precision_bits: calls.append(r) or log2_bracket(r, precision_bits))
    res = ccbounds.check_chain(CC_CORPUS["gt2"], F(1, 8)).srec1
    assert calls == []
    rec = bound_record("srec", "h", {}, res)
    lo, hi = log2_bracket(res.value, 20)
    assert (rec["log2_lo"], rec["log2_hi"]) == (format_rational(lo), format_rational(hi))
    assert hi - lo <= F(1, 1 << 20)
    assert calls == [res.value]


WEIGHTS = st.builds(F, st.integers(0, 4), st.integers(1, 6))  # zeros are common


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_srec_rows_match_per_rectangle_label_masses(a, b, data):
    """The averaged covering row, summed from one integer cell table, is the
    row of per-rectangle ``label_masses`` scaled as the reference scales it;
    so is every other row.  Tables up to 4x4, product measures k/d with zero
    weights, both outputs, error levels k/d in [0,1]."""
    nx, ny = 1 << a, 1 << b
    draw = data.draw
    f = TwoPartyFunction(tuple(tuple(draw(st.integers(0, 1)) for _ in range(ny)) for _ in range(nx)))
    mu = ProductDistribution2P(tuple(draw(WEIGHTS) for _ in range(nx)), tuple(draw(WEIGHTS) for _ in range(ny)))
    level = st.builds(lambda k, d: F(min(k, d), d), st.integers(0, 6), st.integers(1, 6))
    inst = SrecInstance(f, draw(st.integers(0, 1)), draw(level), draw(level), draw(st.sampled_from([None, mu])))
    assert reference_lp.integer_form(build_srec_lp(inst)) == reference_lp.reference_form(*reference_lp.srec_parts(inst))
