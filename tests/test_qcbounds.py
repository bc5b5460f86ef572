from fractions import Fraction as F

import pytest
from conftest import QC_CORPUS, assert_refuses, qprt_cached
from reference_boost import reference_majority_error
from reference_duals import build_qprt_dual_lp, split_free
from reference_lp import reference_solve
from reference_model import point_masses

from lpbounds import families, qcbounds
from lpbounds.errors import CapExceededError, DimensionMismatchError, InfeasibleConstructionError
from lpbounds.lp import check_feasible, solve
from lpbounds.model import BitProductDistribution, QueryFunction, Subcube, enumerate_subcubes
from lpbounds.qcbounds import (
    FeasibleSystem,
    boost_qprt,
    build_qprt_lp,
    extract_feasible,
    qprt_bound,
    qprt_solution,
)
from lpbounds.rational import min_odd_votes_for_error
from lpbounds.records import replace


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
    family = qcbounds._cube_family(g.n)
    _, correct = point_masses(family, sol.weights, g.table)
    total, boosted_correct = point_masses(family, boosted.solution.weights, g.table)
    for x in range(4):
        assert total[x] == 1
        assert boosted_correct[x] == 1 - reference_majority_error(correct[x], 3)
    assert boosted.objective <= res.value**3
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
    system = extract_feasible(boosted, F(1, 64), BitProductDistribution.uniform(g.n))
    full = Subcube(2, 0, 0)
    assert system.u == {full: F(1)}
    assert system.w == {}
    assert system.verify(g, BitProductDistribution.uniform(g.n)) == []


def test_extract_cutoff_keeps_everything_at_small_support():
    g = QC_CORPUS["and3"]
    sol = qprt_solution(g, qprt_cached("and3", F(1, 8)))
    t = min_odd_votes_for_error(F(7, 8), F(1, 64))
    boosted = boost_qprt(sol, g, t)
    system = extract_feasible(boosted, F(1, 64), BitProductDistribution.uniform(g.n))
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
    system = extract_feasible(boosted, gamma, mu)
    assert system.alpha0 == system.beta0 == system.alpha1 == system.beta1 == 2 * gamma
    assert system.verify(g, mu) == []


def test_extract_respects_fixed_bits():
    g = QC_CORPUS["or3"]
    mu = BitProductDistribution((F(1), F(1, 2), F(1, 2)))  # bit 0 pinned to 1
    sol = qprt_solution(g, qprt_cached("or3", F(1, 8)))
    gamma = F(1, 64)
    boosted = boost_qprt(sol, g, min_odd_votes_for_error(F(7, 8), gamma))
    system = extract_feasible(boosted, gamma, mu)
    for cube in list(system.u) + list(system.w):
        assert not cube.support & 0b001
    assert system.verify(g, mu) == []


def test_extract_discards_the_weight_above_the_cutoff():
    """A cube with more than d' fixed bits is dropped, and its weight is below gamma by Markov's bound.

    The objective is 1 + 16/100, so d' = ceil(log2 29/25) + log2 4 = 3 and
    the 4-bit cube 0000 goes.  The synthesis pipeline never discards: its
    gamma = 1/c^8 with c >= 8 puts the cutoff at 24 bits or more, above
    every n <= 12.  By the same Markov bound the ``removed >= gamma``
    refusal after the discard fires only on a solution with a negative
    weight.
    """
    g, mu = families.const_q(4, 0), BitProductDistribution.uniform(4)
    full = Subcube.from_pattern("****")
    sol = qcbounds.QprtSolution(4, {(0, full): F(1), (0, Subcube.from_pattern("0000")): F(1, 100)})
    system = extract_feasible(qcbounds.BoostedQprt(sol, 1, F(0), F(29, 25)), F(1, 4), mu)
    assert (system.a, system.b) == (3, 3)
    assert (system.u, system.w) == ({full: F(1)}, {})


def test_extract_requires_error_within_gamma():
    g = QC_CORPUS["xor2"]
    sol = qprt_solution(g, qprt_cached("xor2", F(1, 8)))
    boosted = boost_qprt(sol, g, 1)
    with pytest.raises(InfeasibleConstructionError):
        extract_feasible(boosted, F(1, 1000), BitProductDistribution.uniform(g.n))


def _extract(weights, achieved_error, gamma, bits=3):
    """``extract_feasible`` of a hand-built 3-bit solution, under the uniform measure on ``bits`` bits."""
    objective = sum((1 << cube.size) * w for (_, cube), w in weights.items())
    boosted = qcbounds.BoostedQprt(qcbounds.QprtSolution(3, weights), 1, achieved_error, objective)
    return extract_feasible(boosted, gamma, BitProductDistribution.uniform(bits))


FULL3 = Subcube.from_pattern("***")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: qprt_bound(QueryFunction(12, (0,) * 4096), F(1, 8)),
         CapExceededError, "1062882 variables exceed the qprt cap"),
        (lambda: _extract({(0, FULL3): F(1)}, F(1, 8), F(1, 16)),
         InfeasibleConstructionError, "boosted error 1/8 exceeds gamma 1/16"),
        # objective 8 - 15/2 = 1/2 puts the cutoff at 1 bit, and the 3-bit cube carries 1
        (lambda: _extract({(0, Subcube.from_pattern("000")): F(1), (1, FULL3): F(-15, 2)}, F(0), F(1, 2)),
         InfeasibleConstructionError, "discarded mass 1 is not below gamma 1/2"),
        # an error of 0 meets gamma = 0, whose cutoff log2(1/gamma) does not exist
        (lambda: _extract({(0, FULL3): F(1)}, F(0), F(0)),
         DimensionMismatchError, "gamma must be positive, got 0"),
        (lambda: _extract({(0, FULL3): F(1)}, F(0), F(-1, 8)),
         DimensionMismatchError, "gamma must be positive, got -1/8"),
        (lambda: _extract({(0, FULL3): F(1)}, F(0), F(1, 8), bits=4),
         DimensionMismatchError, "bit counts disagree: measure 4, function 3"),
    ],
    ids=["cap", "gamma-below-error", "discarded-mass", "gamma-zero", "gamma-negative", "bit-count"],
)
def test_qcbounds_refuses_malformed_input(call, error, message):
    assert_refuses(call, error, message)


X0_IS_1 = Subcube(3, 0b001, 0b001)  # maj3 is 1 on all of it once bit 2 is pinned to 1
X01_ARE_0 = Subcube(3, 0b011, 0b000)  # the one point where maj3 is 0 then


def _scaled(weights, factor):
    return {c: factor * w for c, w in weights.items()}


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda s: {"u": {**s.u, X0_IS_1: F(-1)}}, "negative weight on "),
        (lambda s: {"a": 0}, "u support "),
        (lambda s: {"b": 0}, "w support "),
        (lambda s: {"u": {**s.u, Subcube(3, 0b100, 0b100): F(0)}}, " uses a mu-fixed bit"),
        (lambda s: {"u": _scaled(s.u, F(1, 2))}, "u covering below 1-alpha0 at "),
        (lambda s: {"u": {**s.u, X0_IS_1: s.u.get(X0_IS_1, F(0)) + 1}}, "u mass above beta0 at "),
        (lambda s: {"w": {**s.w, X0_IS_1: s.w.get(X0_IS_1, F(0)) + 1}}, "w mass above 1 at "),
        (lambda s: {"w": {**s.w, X01_ARE_0: s.w.get(X01_ARE_0, F(0)) + F(1, 2)}}, "w mass above beta1 at "),
        (lambda s: {"w": _scaled(s.w, F(1, 2))}, "w carries less than (1-alpha1) mu_1 of 1-mass"),
    ],
    ids=["negative", "a", "b", "fixed-bit", "alpha0", "beta0", "cap", "beta1", "alpha1"],
)
def test_verify_reports_each_violated_inequality(perturb, message):
    g = QC_CORPUS["maj3"]
    mu = BitProductDistribution((F(1, 2), F(1, 2), F(1)))  # bit 2 pinned to 1
    sol = qprt_solution(g, qprt_cached("maj3", F(1, 8)))
    gamma = F(1, 64)
    boosted = boost_qprt(sol, g, min_odd_votes_for_error(F(7, 8), gamma))
    system = extract_feasible(boosted, gamma, mu)
    problems = replace(system, **perturb(system)).verify(g, mu)
    assert problems and all(message in p for p in problems), problems


# g(0) = 0 and g(1) = 1; u and w weigh each point's own cube, at every margin exactly
POINT0, POINT1 = Subcube(1, 1, 0), Subcube(1, 1, 1)
AT_THE_MARGINS = FeasibleSystem(
    n=1, u={POINT0: F(5, 7), POINT1: F(2, 5)}, w={POINT0: F(3, 11), POINT1: F(1)},
    alpha0=F(2, 7), beta0=F(2, 5), alpha1=F(0), beta1=F(3, 11), a=1, b=1,
)


@pytest.mark.parametrize(
    "family, cube, weight, message",
    [
        ("u", POINT0, F(7, 10), "u covering below 1-alpha0 at 0"),
        ("u", POINT1, F(3, 7), "u mass above beta0 at 1"),
        ("w", POINT0, F(2, 7), "w mass above beta1 at 0"),
        ("w", POINT1, F(144, 143), "w mass above 1 at 1"),
    ],
    ids=["alpha0", "beta0", "beta1", "cap"],
)
def test_verify_is_exact_at_each_pointwise_margin(family, cube, weight, message):
    """Masses on their margins pass, and a mass just past one is reported alone.

    The cap case is one unit of the masses' denominator past 1; the others
    are over a denominator the margin's does not divide, which only the
    right rounding of the margin gets right.
    """
    g, mu = QueryFunction(1, (0, 1)), BitProductDistribution((F(1, 2),))
    assert AT_THE_MARGINS.verify(g, mu) == []
    moved = replace(AT_THE_MARGINS, **{family: {**getattr(AT_THE_MARGINS, family), cube: weight}})
    assert moved.verify(g, mu) == [message]


def test_verify_is_exact_at_the_alpha1_margin():
    """w carrying (1 - alpha1) mu_1 of 1-mass passes; one unit of w's denominator less is reported alone.

    Bit 1 is pinned to 1, and the w cubes 0* and 1* leave it free.  ``mu``
    weighs only 01 (label 0, 1/3) and 11 (label 1, 2/3), so mu_1 = 2/3 and
    the margin is w(1*) = 1 - alpha1 = 5/7.  The label-1 points 00 and 10,
    which ``mu`` does not weigh, carry w mass too.
    """
    g, mu = QueryFunction(2, (1, 1, 0, 1)), BitProductDistribution((F(2, 3), F(1)))
    zero, one = Subcube.from_pattern("0*"), Subcube.from_pattern("1*")
    system = FeasibleSystem(n=2, u={zero: F(1)}, w={zero: F(2, 7), one: F(5, 7)}, alpha0=F(0),
                            beta0=F(0), alpha1=F(2, 7), beta1=F(2, 7), a=1, b=1)
    assert system.verify(g, mu) == []
    moved = replace(system, w={**system.w, one: F(4, 7)})
    assert moved.verify(g, mu) == ["w carries less than (1-alpha1) mu_1 of 1-mass"]


def test_verify_refuses_a_w_cube_over_another_bit_count():
    g, mu = QueryFunction(1, (0, 1)), BitProductDistribution((F(1, 2),))
    system = replace(AT_THE_MARGINS, w={**AT_THE_MARGINS.w, Subcube(2, 1, 1): F(0)})
    assert_refuses(lambda: system.verify(g, mu), DimensionMismatchError,
                   "bit counts disagree: measure 1, function 1, subcube 2")


def test_verify_refuses_a_u_cube_over_another_bit_count():
    g, mu = QueryFunction(1, (0, 1)), BitProductDistribution((F(1, 2),))
    system = replace(AT_THE_MARGINS, u={**AT_THE_MARGINS.u, Subcube(2, 3, 2): F(0)}, a=2, b=2)
    assert_refuses(lambda: system.verify(g, mu), DimensionMismatchError,
                   "bit counts disagree: measure 1, function 1, subcube 2")
