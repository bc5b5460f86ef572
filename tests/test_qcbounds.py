from fractions import Fraction as F

import pytest
from conftest import QC_CORPUS, qprt_cached
from reference_duals import build_qprt_dual_lp, split_free
from reference_lp import reference_solve

from lpbounds import families, qcbounds
from lpbounds.errors import DimensionMismatchError, InfeasibleConstructionError
from lpbounds.lp import check_feasible, solve
from lpbounds.model import BitProductDistribution, Subcube, enumerate_subcubes
from lpbounds.qcbounds import (
    boost_qprt,
    build_qprt_lp,
    extract_feasible,
    qprt_bound,
    qprt_solution,
)
from lpbounds.rational import majority_error, min_odd_votes_for_error


@pytest.mark.parametrize("eps", [F(-1, 8), F(3, 2)])
@pytest.mark.parametrize("build", [build_qprt_lp, build_qprt_dual_lp])
def test_qprt_programs_reject_eps_outside_unit_interval(build, eps):
    with pytest.raises(DimensionMismatchError):
        build(families.and_q(2), eps)


def test_qprt_constant_zero():
    g = families.const_q(2, 0)
    res = qprt_bound(g, F(0))
    assert res.value == 1
    # independent floor: the uniform phi = 2^-n dual point is feasible with value 1
    dual = build_qprt_dual_lp(g, F(0))
    phi_point = {f"phi_{x}": F(1, 4) for x in range(4)}
    assert check_feasible(dual, phi_point) == []


def test_qprt_half_error_is_one():
    for name in ("xor2", "and3"):
        g = QC_CORPUS[name]
        res = qprt_bound(g, F(1, 2))
        assert res.value == 1


def test_qprt_xor2_zero_error_is_sixteen():
    """Zero error pins every point's full unit of mass to correct-label
    subcubes; parity has no monochromatic subcube besides singletons, so
    each of the four points costs 2^2 and the optimum is 16.  The explicit
    dual point mu = 8, phi = -4 certifies the floor independently (the dual
    program minimises minus the dual objective).
    """
    g = QC_CORPUS["xor2"]
    for cube in enumerate_subcubes(2):
        values = {g.value(x) for x in cube.members()}
        if cube.size < 2:
            assert values == {0, 1}  # every non-singleton is mixed
    res = qprt_bound(g, F(0))
    assert res.value == 16
    dual = build_qprt_dual_lp(g, F(0))
    point = {f"mu_{x}": F(8) for x in range(4)}
    point.update({f"phi_{x}": F(-4) for x in range(4)})
    assert check_feasible(dual, split_free(point)) == []
    assert -dual.objective_value(split_free(point)) == 16


def test_qprt_dual_program_matches():
    g = QC_CORPUS["maj3"]
    eps = F(1, 8)
    primal = solve(build_qprt_lp(g, eps))
    dual = reference_solve(build_qprt_dual_lp(g, eps))
    assert -dual.value == primal.value
    plp = build_qprt_lp(g, eps)
    assign = {}
    for i, row in enumerate(plp.rows):
        kind, x = row.label.split("_")
        assign[("mu" if kind == "cov" else "phi") + f"_{x}"] = primal.dual[i]
    assert check_feasible(build_qprt_dual_lp(g, eps), split_free(assign)) == []


def test_qprt_monotone_in_eps():
    for name, g in QC_CORPUS.items():
        values = [
            qprt_bound(g, eps).value for eps in (F(0), F(1, 8), F(1, 4), F(1, 2))
        ]
        assert all(a >= b for a, b in zip(values, values[1:])), name


def test_boost_identity_at_one_vote():
    g = QC_CORPUS["xor2"]
    sol = qprt_solution(g, qprt_cached("xor2", F(1, 8)))
    boosted = boost_qprt(sol, g, 1)
    assert boosted.solution.weights == sol.weights
    assert boosted.votes == 1


def test_boost_three_votes_exact_guarantees():
    g = families.and_q(2)
    res = qprt_bound(g, F(1, 4))
    sol = qprt_solution(g, res)
    boosted = boost_qprt(sol, g, 3)  # verifies mass, tails, objective internally
    family = qcbounds._cube_family(g)
    for x in range(4):
        assert family.mass_at(boosted.solution.weights, x) == 1
        a = family.mass_at(sol.weights, x, g.value(x))
        assert family.mass_at(boosted.solution.weights, x, g.value(x)) == 1 - majority_error(a, 3)
    assert boosted.solution.objective <= res.value**3
    # independent feasibility re-check at the achieved error level
    lp = build_qprt_lp(g, boosted.achieved_error)
    assign = {
        f"w{z}_{c.pattern()}": w for (z, c), w in boosted.solution.weights.items()
    }
    assert check_feasible(lp, assign) == []


def test_boost_rejects_even_votes():
    g = QC_CORPUS["xor2"]
    sol = qprt_solution(g, qprt_cached("xor2", F(1, 8)))
    with pytest.raises(ValueError):
        boost_qprt(sol, g, 4)


def test_extract_constant_zero():
    # at eps = 0 the optimum is exactly unit weight on the full cube with
    # label 0, so the split is u = {full: 1}, w = {} at any gamma
    g = families.const_q(2, 0)
    sol = qprt_solution(g, qprt_bound(g, F(0)))
    boosted = boost_qprt(sol, g, 3)
    system = extract_feasible(boosted, F(1, 64), g, BitProductDistribution.uniform(g.n))
    full = Subcube(2, 0, 0)
    assert system.u == {full: F(1)}
    assert system.w == {}
    assert system.verify(g, BitProductDistribution.uniform(g.n)) == []


def test_extract_cutoff_keeps_everything_at_small_support():
    g = QC_CORPUS["and3"]
    sol = qprt_solution(g, qprt_cached("and3", F(1, 8)))
    t = min_odd_votes_for_error(F(7, 8), F(1, 64))
    boosted = boost_qprt(sol, g, t)
    system = extract_feasible(boosted, F(1, 64), g, BitProductDistribution.uniform(g.n))
    assert system.a >= g.n  # nothing removable: supports stop at n bits
    split = {(0, c): w for c, w in system.u.items()}
    split.update({(1, c): w for c, w in system.w.items()})
    assert split == boosted.solution.weights


def test_extract_full_inequality_families():
    g = QC_CORPUS["and3"]
    mu = BitProductDistribution.uniform(3)
    sol = qprt_solution(g, qprt_cached("and3", F(1, 8)))
    gamma = F(1, 64)
    boosted = boost_qprt(sol, g, min_odd_votes_for_error(F(7, 8), gamma))
    system = extract_feasible(boosted, gamma, g, mu)
    assert system.alpha0 == system.beta0 == system.alpha1 == system.beta1 == 2 * gamma
    assert system.verify(g, mu) == []


def test_extract_respects_fixed_bits():
    g = QC_CORPUS["or3"]
    mu = BitProductDistribution((F(1), F(1, 2), F(1, 2)))  # bit 0 pinned to 1
    sol = qprt_solution(g, qprt_cached("or3", F(1, 8)))
    gamma = F(1, 64)
    boosted = boost_qprt(sol, g, min_odd_votes_for_error(F(7, 8), gamma))
    system = extract_feasible(boosted, gamma, g, mu)
    for cube in list(system.u) + list(system.w):
        assert not cube.support & 0b001
    assert system.verify(g, mu) == []


def test_extract_requires_error_within_gamma():
    g = QC_CORPUS["xor2"]
    sol = qprt_solution(g, qprt_cached("xor2", F(1, 8)))
    boosted = boost_qprt(sol, g, 1)
    with pytest.raises(InfeasibleConstructionError):
        extract_feasible(boosted, F(1, 1000), g, BitProductDistribution.uniform(g.n))
