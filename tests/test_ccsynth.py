import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from conftest import CC_CORPUS, UNIFORM_4x4, assert_refuses

from lpbounds import ccsynth, families
from lpbounds import lp as lpmod
from lpbounds.ccbounds import SrecInstance, srec_bound, srec_weights
from lpbounds.ccsynth import (
    MAX_PART2_K,
    Decomposition,
    SynthParams,
    balance,
    balance_depth_target,
    decompose,
    find_biased_rectangle,
    minimum_s,
    minimum_t,
    synthesize,
    protocol_pipeline,
    within_leaf_budget,
)
from lpbounds.errors import (
    CapExceededError,
    DimensionMismatchError,
    InfeasibleConstructionError,
    LpboundsError,
    NoBiasedRectangleError,
)
from lpbounds.model import (
    MAX_TABLE_SIDE,
    ProductDistribution2P,
    Rectangle,
    TwoPartyFunction,
    full_rectangle,
)
from lpbounds.rational import largest_fourth_power_at_most
from lpbounds.records import replace
from lpbounds.serialize import write_protocol_tree
from lpbounds.trees import Leaf, PNode, advantage, evaluate, leaf_count, protocol_error, tree_depth


def deep_params(f, eps=F(0), qbits=17, delta_exp=20, mu=UNIFORM_4x4, big_delta=None):
    """Minimal valid parameters that keep the advantage floor positive."""
    q = F(1, 1 << qbits)
    delta = q**4
    r0 = srec_bound(SrecInstance(f, 0, eps, delta, mu))
    r1 = srec_bound(SrecInstance(f, 1, eps, delta, mu))
    s = minimum_s(r0.value, r1.value)
    if big_delta is None:
        big_delta = F(1, 1 << delta_exp)
    t = minimum_t(s, mu.total, big_delta)
    params = SynthParams(eps, delta, q, big_delta, s, t)
    return mu, params, srec_weights(r0), srec_weights(r1)


def test_advantage_single_leaves():
    f = families.const2p(2, 0)
    assert advantage(Leaf(0), f, UNIFORM_4x4) == 1
    assert advantage(Leaf(1), f, UNIFORM_4x4) == -1


def test_advantage_eq2_leaf():
    # 12 off-diagonal cells right, 4 diagonal wrong: 12/16 - 4/16
    assert advantage(Leaf(0), CC_CORPUS["eq2"], UNIFORM_4x4) == F(1, 2)


def test_protocol_error_rejects_a_measure_of_another_shape():
    with pytest.raises(DimensionMismatchError):
        protocol_error(Leaf(0), CC_CORPUS["eq2"], ProductDistribution2P.uniform(2, 2))


def test_find_biased_rectangle_constant():
    f = families.const2p(2, 0)
    full = full_rectangle(f)
    rect = find_biased_rectangle(f, UNIFORM_4x4, full, {full: F(1)}, F(1, 4), F(0), F(0), z=0)
    assert rect == full


def test_find_biased_rectangle_returns_its_rectangle_clipped_to_active():
    """Masses are read on R & active, and S = R & active comes back.

    On eq2 the full rectangle is not biased toward 0 (1/4 of its mass is
    diagonal); clipped to an active rectangle off the diagonal it is, and
    the clipped rectangle is returned.
    """
    f = CC_CORPUS["eq2"]
    full, active = full_rectangle(f), Rectangle(0b0011, 0b1100)
    weights = {full: F(1)}
    rect = find_biased_rectangle(f, UNIFORM_4x4, active, weights, F(1, 4), F(0), F(0), z=0)
    assert rect == active
    with pytest.raises(NoBiasedRectangleError, match="no biased rectangle in the solution support"):
        find_biased_rectangle(f, UNIFORM_4x4, full, weights, F(1, 4), F(0), F(0), z=0)


def test_find_biased_rectangle_empty_support():
    f = CC_CORPUS["eq2"]
    with pytest.raises(NoBiasedRectangleError):
        find_biased_rectangle(f, UNIFORM_4x4, full_rectangle(f), {}, F(1, 4), F(0), F(0), z=0)


def test_find_biased_rectangle_from_srec_solution():
    f = CC_CORPUS["eq2"]
    res = srec_bound(SrecInstance(f, 0, F(0), F(0), UNIFORM_4x4))
    weights = srec_weights(res)
    rho = F(1, 4)
    rect = find_biased_rectangle(f, UNIFORM_4x4, full_rectangle(f), weights, rho, F(0), F(0), z=0)
    m0, m1 = UNIFORM_4x4.label_masses(f, rect)
    assert m1 <= rho * m0
    mu0 = UNIFORM_4x4.label_masses(f, full_rectangle(f))[0]
    assert m0 >= mu0 / res.value  # delta = 0 kills the subtracted term


def test_decompose_constant_zero_is_case_a():
    f = families.const2p(2, 0)
    active = full_rectangle(f)
    dec = decompose(f, UNIFORM_4x4, Rectangle(0b0011, 0b0011), {}, F(1, 16), active, z=0)
    assert dec.case == "01" and dec.restricted is None


def test_decompose_zero_mass_blocks():
    f = CC_CORPUS["eq2"]
    active = full_rectangle(f)
    # S spans all rows: both off-diagonal blocks on the row side are empty
    dec = decompose(
        f, UNIFORM_4x4, Rectangle(0b1111, 0b1111), {}, F(1, 16), active, z=0
    )
    assert isinstance(dec, Decomposition)
    assert dec.case == "01" and dec.restricted is None


def test_decompose_case_b_covering_verified():
    f = CC_CORPUS["xor2"]
    mu = UNIFORM_4x4
    q = F(1, 1 << 17)
    delta = q**4
    r1 = srec_bound(SrecInstance(f, 1, F(0), delta, mu))
    w1 = srec_weights(r1)
    r0 = srec_bound(SrecInstance(f, 0, F(0), delta, mu))
    w0 = srec_weights(r0)
    s_rect = find_biased_rectangle(f, mu, full_rectangle(f), w0, q * q, F(0), delta, z=0)
    dec = decompose(f, mu, s_rect, w1, q, full_rectangle(f), z=0)
    if dec.restricted is not None:
        assert dec.sub_eps is not None
        block = dec.block
        covered = sum(
            (
                wt * mu.label_masses(f, rect.intersect(block))[1]
                for rect, wt in dec.restricted.items()
            ),
            F(0),
        )
        assert covered >= (1 - dec.sub_eps) * mu.label_masses(f, block)[1]
        assert sum(dec.restricted.values(), F(0)) <= F(9, 10) * r1.value


def test_decompose_case_10_with_a_covering_level_above_one():
    # block "01" fails the objective test; block "10" misses the only cover rectangle
    f = CC_CORPUS["xor2"]
    cover = {Rectangle(0b0011, 0b1100): F(1)}
    q = F(1, 1 << 17)
    dec = decompose(f, UNIFORM_4x4, Rectangle(0b0011, 0b0011), cover, q, full_rectangle(f), z=0)
    assert (dec.case, dec.restricted, dec.block) == ("10", {}, Rectangle(0b1100, 0b0011))
    assert dec.sub_eps == 1 + 30 * q == F(65551, 65536)


def _spy_decompose(monkeypatch):
    """The decompositions ``synthesize`` makes, in call order."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(decompose(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(ccsynth, "decompose", spy)
    return seen


def test_synthesize_alternative_a_block_leaf(monkeypatch):
    f = TwoPartyFunction(((1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0)))
    mu = ProductDistribution2P(
        tuple(F(w, 9) for w in (1, 1, 4, 3)), tuple(F(w, 13) for w in (4, 3, 2, 4))
    )
    seen = _spy_decompose(monkeypatch)
    tree = synthesize(f, mu, *deep_params(f, mu=mu)[1:])
    assert [(d.case, d.restricted) for d in seen] == [("01", None)]
    # S = row 3 x all columns, biased to 0; the lopsided block X0 x Y1 is empty
    assert tree == PNode("A", 0b1000, PNode("B", 0b1111, Leaf(0), Leaf(0)), Leaf(1))
    assert advantage(tree, f, mu) == F(7, 9)


def test_synthesize_case_10_lets_b_speak_first(monkeypatch):
    f = TwoPartyFunction(((1, 1, 0, 0), (0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 1, 0)))
    mu = ProductDistribution2P(
        tuple(F(w, 5) for w in (0, 4, 0, 1)), tuple(F(w, 17) for w in (3, 5, 4, 5))
    )
    seen = _spy_decompose(monkeypatch)
    tree = synthesize(f, mu, *deep_params(f, eps=F(1, 1 << 40), mu=mu)[1:])
    assert [(d.case, d.restricted) for d in seen] == [("10", None)]
    # S = rows {1, 3} x column 1: B announces column 1 first, the rest is columns {0, 2, 3}
    assert tree == PNode("B", 0b0010, PNode("A", 0b1010, Leaf(1), Leaf(1)), Leaf(0))
    assert advantage(tree, f, mu) == F(77, 85)


def test_synthesize_t_zero_exit():
    f = CC_CORPUS["xor2"]
    mu = UNIFORM_4x4
    _, params, w0, w1 = deep_params(f, big_delta=mu.total * (1 - F(1, 1 << 400)))
    assert (params.s, params.t) == (300, 1)
    tree = synthesize(f, mu, params, w0, w1)
    # the rest child at t = 0 is neither lopsided nor out of advantage budget
    assert mu.label_masses(f, Rectangle(0b1001, 0b1111)) == (F(1, 4), F(1, 4))
    assert params.eps + 30 * (params.s + 1) * params.delta_root < F(1, 10)
    assert tree == PNode("A", 0b0110, PNode("B", 0b0110, Leaf(0), Leaf(1)), Leaf(0))
    assert leaf_count(tree) == 3 and advantage(tree, f, mu) == F(1, 2)


def test_synthesize_constant_zero_single_leaf():
    f = families.const2p(2, 0)
    mu, params, w0, w1 = deep_params(f)
    tree = synthesize(f, mu, params, w0, w1)
    assert tree == Leaf(0)
    assert advantage(tree, f, mu) == mu.total


@pytest.mark.parametrize("delta_exp", [20, 20000])  # a floor too long to print exactly
def test_synthesize_refuses_an_advantage_one_step_below_the_floor(monkeypatch, delta_exp):
    f = families.const2p(2, 0)
    mu, params, w0, w1 = deep_params(f, delta_exp=delta_exp)
    num, den = ccsynth.advantage_floor(params.eps, params.delta_root, params.s, mu.total, params.big_delta, 1)
    monkeypatch.setattr(ccsynth, "advantage", lambda tree, f, mu: F(num - 1, den))
    with pytest.raises(InfeasibleConstructionError, match="below the guaranteed floor"):
        synthesize(f, mu, params, w0, w1)
    monkeypatch.setattr(ccsynth, "advantage", lambda tree, f, mu: F(num, den))
    assert synthesize(f, mu, params, w0, w1) == Leaf(0)


@pytest.mark.parametrize("k", [20, 100, 4096])
def test_advantage_floor_is_the_fraction_expression(k):
    q, eps = largest_fourth_power_at_most(F(1, 3000 * (k + 1) ** 4))
    mu_total, big_delta, leaves = F(3, 7), F(1, 1 << (5 * k * k)), 12
    want = (F(1, 10) - eps - 30 * (k + 1) * q) * mu_total - big_delta * leaves
    assert F(*ccsynth.advantage_floor(eps, q, k, mu_total, big_delta, leaves)) == want


def test_synthesize_vacuous_budget_single_leaf():
    # eps + 30 (s+1) delta^(1/4) >= 1/10 forces the one-leaf fallback
    f = CC_CORPUS["gt2"]
    mu = UNIFORM_4x4
    q, delta = F(1, 4), F(1, 256)
    r0 = srec_bound(SrecInstance(f, 0, F(1, 8), delta, mu))
    r1 = srec_bound(SrecInstance(f, 1, F(1, 8), delta, mu))
    from lpbounds.ccsynth import minimum_s, minimum_t

    s = minimum_s(r0.value, r1.value)
    big_delta = F(1, 256)
    t = minimum_t(s, mu.total, big_delta)
    params = SynthParams(F(1, 8), delta, q, big_delta, s, t)
    tree = synthesize(f, mu, params, srec_weights(r0), srec_weights(r1))
    assert isinstance(tree, Leaf)


def test_synthesize_deep_run_guarantees():
    """Non-degenerate run: the full recursion with exact end checks."""
    f = CC_CORPUS["xor2"]
    mu, params, w0, w1 = deep_params(f)
    coeff = F(1, 10) - params.eps - 30 * (params.s + 1) * params.delta_root
    assert coeff > 0  # genuinely non-vacuous
    tree = synthesize(f, mu, params, w0, w1)
    leaves = leaf_count(tree)
    assert leaves > 1  # the recursion actually branched
    budget = 4 * math.comb(params.s + params.t, min(params.s, params.t)) - 1
    assert leaves <= budget
    adv = advantage(tree, f, mu)
    assert adv >= coeff * mu.total - params.big_delta * leaves
    assert adv == mu.total - 2 * protocol_error(tree, f, mu)


def test_synthesize_rejects_bad_params():
    f = CC_CORPUS["xor2"]
    mu, params, w0, w1 = deep_params(f)
    with pytest.raises(InfeasibleConstructionError):
        SynthParams(params.eps, params.delta, F(1, 3), params.big_delta, params.s, params.t)
    bad = SynthParams(params.eps, params.delta, params.delta_root, params.big_delta, 0, params.t)
    with pytest.raises(InfeasibleConstructionError):
        synthesize(f, mu, bad, w0, w1)


HALF = SynthParams(F(0), F(1, 16), F(1, 2), F(1, 1024), 1, 1)  # valid; delta = (1/2)**4


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: find_biased_rectangle(CC_CORPUS["eq2"], UNIFORM_4x4, Rectangle(15, 15), {}, F(1, 4), F(1), F(0), 0),
         NoBiasedRectangleError, "no biased rectangle: (1-eps) mu_0 - (delta/rho) mu_1 = 0 <= 0"),
        # the two messages that print a mass print it over the measure's denominator, 16 here
        (lambda: find_biased_rectangle(CC_CORPUS["eq2"], UNIFORM_4x4, Rectangle(15, 15), {}, F(1, 4), F(1, 2),
                                       F(1, 16), 1),
         NoBiasedRectangleError, "no biased rectangle: (1-eps) mu_1 - (delta/rho) mu_0 = -1/16 <= 0"),
        (lambda: find_biased_rectangle(CC_CORPUS["eq2"], UNIFORM_4x4, Rectangle(0b0011, 0b1100),
                                       {Rectangle(15, 15): F(1, 100)}, F(1, 4), F(0), F(0), 0),
         InfeasibleConstructionError, "biased rectangle mass 1/4 below the guaranteed level"),
        (lambda: replace(HALF, eps=F(2)),
         InfeasibleConstructionError, "eps must be in [0,1] and delta in (0,1)"),
        (lambda: replace(HALF, s=-1),
         InfeasibleConstructionError, "budgets must be non-negative"),
        (lambda: synthesize(CC_CORPUS["eq2"], ProductDistribution2P.uniform(2, 2), HALF, {}, {}),
         DimensionMismatchError, "measure shape does not match function"),
        (lambda: protocol_pipeline(TwoPartyFunction(((0, 1, 0, 1), (1, 0, 1, 0))), UNIFORM_4x4, 1),
         DimensionMismatchError, "square domains only"),
        (lambda: protocol_pipeline(families.eq(1), ProductDistribution2P.uniform(2, 2), 1),
         DimensionMismatchError, "part 1 needs at least 4 x 4 inputs"),
        (lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 1, 7),
         DimensionMismatchError, "part 1 takes no k; only part 2 reads it"),
        (lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 2),
         DimensionMismatchError, "part 2 requires an explicit k >= 20"),
        (lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 2, 19),
         DimensionMismatchError, "part 2 requires an explicit k >= 20"),
        (lambda: protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 3),
         DimensionMismatchError, "part must be 1 or 2"),
    ],
    ids=["no-demand", "negative-demand", "below-level", "eps", "budgets", "measure-shape", "square", "part1-size", "part1-k",
         "part2-no-k", "part2-k19", "part"],
)
def test_ccsynth_refuses_malformed_input(call, error, message):
    assert_refuses(call, error, message)


def test_thresholds_are_zero_where_their_logarithm_is_not_positive():
    assert minimum_s(F(1, 4), F(1, 4)) == 0  # 2 (V0 + V1) = 1
    assert minimum_t(7, F(1, 2), F(1, 2)) == 0  # |mu| / Delta = 1


def test_the_twentieth_coefficient_is_negative_on_every_supported_input():
    """1/10 - eps - 30 (s+1) delta^(1/4) < 0 for each part-1 n and each part-2 k.

    It is the coefficient of |mu| in the advantage floor; below 1/20 it
    never yields the |mu|/20 - Delta*L form, so ``twentieth_applicable`` is
    always false.  Part 1 has s >= 0, part 2 has s = k.
    """
    for n in range(2, MAX_TABLE_SIDE.bit_length()):
        q, eps = largest_fourth_power_at_most(F(1, n * n))
        assert F(1, 10) - eps - 30 * q < 0, n
    for k in range(20, MAX_PART2_K + 1):
        q, eps = largest_fourth_power_at_most(F(1, 3000 * (k + 1) ** 4))
        assert F(1, 10) - eps - 30 * (k + 1) * q < 0, k


@pytest.mark.parametrize("part, k", [(1, None), (2, 100)])
def test_pipeline_computes_the_t_threshold_once(part, k):
    minimum_t.cache_clear()
    rep = protocol_pipeline(families.const2p(2, 0), UNIFORM_4x4, part, k)
    assert rep.hypothesis_ok and minimum_t.cache_info().misses == 1
    params = rep.params
    assert params.t == minimum_t.__wrapped__(params.s, UNIFORM_4x4.total, params.big_delta)


def test_validate_checks_t_after_the_threshold_is_cached():
    f = CC_CORPUS["xor2"]
    mu, params, w0, w1 = deep_params(f)
    value0, value1 = ccsynth.weight_value(w0), ccsynth.weight_value(w1)
    params.validate(mu.total, value0, value1)  # the cache now holds this t
    # the same t falls below the threshold of a larger measure
    heavier = ProductDistribution2P((F(1),) * 4, (F(1),) * 4)
    with pytest.raises(InfeasibleConstructionError, match=f"t = {params.t} below the threshold"):
        params.validate(heavier.total, value0, value1)
    # a copy with a smaller t is checked against the cached threshold
    lower = replace(params, t=params.t - 1)
    with pytest.raises(InfeasibleConstructionError, match=f"t = {lower.t} below the threshold"):
        synthesize(f, mu, lower, w0, w1)


def test_balance_single_leaf_unchanged():
    assert balance(Leaf(1), 4, 4) == Leaf(1)


def test_balance_left_path_eight_leaves():
    tree = Leaf(1)
    for i in range(7):
        tree = PNode("A" if i % 2 == 0 else "B", 1 << (i % 4), Leaf(i % 2), tree)
    assert leaf_count(tree) == 8 and tree_depth(tree) == 7
    out = balance(tree, 4, 4)  # pointwise equality is asserted inside
    assert tree_depth(out) <= balance_depth_target(8)
    assert balance_depth_target(8) == 13  # ceil((171/50) * 3) + 2


def test_balance_refuses_a_rewrite_that_changes_a_leaf(monkeypatch):
    tree = PNode("A", 0b0001, Leaf(0), Leaf(1))
    monkeypatch.setattr(ccsynth, "_balance", lambda t, rows, cols: PNode("A", 0b0001, Leaf(1), Leaf(1)))
    with pytest.raises(InfeasibleConstructionError) as exc:
        balance(tree, 4, 4)
    assert str(exc.value) == "balanced tree disagrees with the input at (0,0)"


def test_balance_preserves_synthesized_tree():
    f = CC_CORPUS["xor2"]
    mu, params, w0, w1 = deep_params(f)
    tree = synthesize(f, mu, params, w0, w1)
    out = balance(tree, 4, 4)
    for x in range(4):
        for y in range(4):
            assert evaluate(out, x, y) == evaluate(tree, x, y)


def test_pipeline_part1_constant():
    f = families.const2p(2, 0)
    rep = protocol_pipeline(f, UNIFORM_4x4, 1)
    assert rep.leaves == 1 and advantage(rep.tree, f, UNIFORM_4x4) == 1
    assert rep.hypothesis_ok


def test_pipeline_part1_gt2_all_assertions():
    rep = protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 1)
    assert rep.hypothesis_ok and rep.tree is not None
    assert rep.adv_floor is not None
    assert advantage(rep.tree, CC_CORPUS["gt2"], UNIFORM_4x4) >= rep.adv_floor
    assert rep.balanced_depth is not None and rep.leaves is not None
    assert rep.balanced_depth <= balance_depth_target(rep.leaves)


def test_pipeline_part1_refuses_k():
    with pytest.raises(ValueError, match="part 1 takes no k"):
        protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 1, k=7)


def test_pipeline_part2_k19_rejected():
    with pytest.raises(ValueError):
        protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 2, k=19)


def test_pipeline_part2_refuses_k_above_the_cap_before_solving(monkeypatch):
    def no_solve(lp):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lpmod, "solve", no_solve)
    with pytest.raises(CapExceededError, match=f"part 2 takes k <= {MAX_PART2_K}"):
        protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 2, k=MAX_PART2_K + 1)


def test_pipeline_part2_small_k_reports_hypothesis_failure():
    rep = protocol_pipeline(CC_CORPUS["gt2"], UNIFORM_4x4, 2, k=20)
    assert not rep.hypothesis_ok
    assert rep.tree is None and rep.notes


@pytest.mark.parametrize("part, k, big_delta", [(1, None, F(1, 1 << 8)), (2, 20, F(1, 1 << 2000))])
@pytest.mark.parametrize("mass", ["zero", "Delta"])
def test_pipeline_rejects_delta_at_least_mu_before_solving(monkeypatch, part, k, big_delta, mass):
    def no_solve(lp):
        raise AssertionError("an LP was solved")

    row = F(0) if mass == "zero" else big_delta
    mu = ProductDistribution2P((row,) + (F(0),) * 3, (F(1),) + (F(0),) * 3)
    monkeypatch.setattr(lpmod, "solve", no_solve)
    with pytest.raises(InfeasibleConstructionError, match="Delta must lie strictly between"):
        protocol_pipeline(CC_CORPUS["gt2"], mu, part, k)


def test_within_leaf_budget_matches_the_binomial():
    big_t = 10**84 + 12345  # 85 digits, as on eq2 part 1
    grid = [(s, t) for s in range(7) for t in range(7)] + [(271, big_t), (big_t, 271), (271, 3)]
    for s, t in grid:
        budget = 4 * math.comb(s + t, min(s, t)) - 1
        leaves = {1, 2, 3, 4, budget - 1, budget, budget + 1, 10**30} - {0}
        for n in leaves:
            assert within_leaf_budget(n, s, t) == (n <= budget), (n, s, t)


def test_pipeline_determinism():
    a = protocol_pipeline(CC_CORPUS["and2"], UNIFORM_4x4, 1)
    b = protocol_pipeline(CC_CORPUS["and2"], UNIFORM_4x4, 1)
    assert a.balanced is not None and b.balanced is not None
    assert write_protocol_tree(a.balanced) == write_protocol_tree(b.balanced)
    assert (a.params, a.tree) == (b.params, b.tree)


BRANCHED_RUNS = 68
TREE_GRID_SHA256 = "83ceeba89a1bcc4d73ee8a1f12c6b040c2125cc55dc846d594e357bbbf8db3d1"


def _synthesis_grid():
    """(name, measure index, q bits, f, mu) over 17 functions, 3 measures and 2 values of q.

    The functions are eq2, gt2, and2, xor2, disj2 and 12 seeded random 4x4
    tables; the measures are uniform, skewed (total 15/16), and one with a
    zero row.
    """
    rng = random.Random(2015)
    functions = {**CC_CORPUS, "disj2": families.disj(2)}
    for i in range(12):
        functions[f"random{i}"] = TwoPartyFunction(
            tuple(tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4))
        )
    measures = [
        UNIFORM_4x4,
        ProductDistribution2P((F(1, 8), F(1, 4), F(1, 8), F(1, 2)), (F(1, 2), F(1, 16), F(1, 4), F(1, 8))),
        ProductDistribution2P((F(1, 3), F(0), F(1, 3), F(1, 3)), (F(1, 4),) * 4),
    ]
    for name, f in functions.items():
        for m, mu in enumerate(measures):
            for qbits in (17, 20):
                yield name, m, qbits, f, mu


def test_synthesized_trees_are_pinned():
    """``synthesize`` at eps 0 and Delta 2^-20 over the grid, trees and refusals, by digest."""
    lines, branched = [], 0
    for name, m, qbits, f, mu in _synthesis_grid():
        try:
            tree = synthesize(f, mu, *deep_params(f, qbits=qbits, mu=mu)[1:])
        except LpboundsError as exc:
            lines.append(f"{name} {m} {qbits} {type(exc).__name__}: {exc}\n")
            continue
        branched += leaf_count(tree) > 1
        lines.append(f"{name} {m} {qbits}\n{write_protocol_tree(tree)}")
    assert (len(lines), branched) == (102, BRANCHED_RUNS)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == TREE_GRID_SHA256
