"""Protocol tree synthesis from distributional smooth-rectangle solutions.

The induction builds a tree with few leaves from feasible weight maps for
the z=0 and z=1 distributional LPs.  At each step the side with the
smaller objective value supplies a large biased rectangle S = X0 x Y0
(bias rho = sqrt(delta)); the other side's solution either shows the
off-diagonal block is already lopsided (answer the biased label) or
restricts to a sub-solution whose objective drops by the factor 0.9 and
whose covering level is recomputed exactly.  A node is its active
rectangle A: it reads the caller's measure on subrectangles of A, which
gives the masses of that measure restricted to A.  The recursion then
branches:

    [speaker announces membership in the biased block]
      inside,inside  -> leaf with the biased label          (S itself)
      inside,outside -> recurse at (s-1, t) on the restricted solution
      outside        -> recurse at (s, t-1), same solutions and error

Leaves take the popular label when the mass is lopsided (one label holds
at least twice the other), the advantage budget is exhausted
(eps + 30 (s+1) delta^(1/4) >= 1/10; a covering level above 1 exhausts
the child's), or s = 0 or t = 0.  Weights feasible for both LPs never
reach s = 0: V0 + V1 >= 1 - eps > 9/10 past the budget exit, so s >= 85
at the root; each edge shrinks the active rectangle, so s >= 85 - 31.

delta must be a fourth power q**4 of a rational q so that sqrt(delta) and
delta^(1/4) stay rational; every threshold comparison is exact.

Guarantees checked exactly at every node and on return:

- leaf-count recurrence: 1 + L(sub) + L(rest) <= 4 C(s+t, t) - 1 with the
  children verified against their own binomial budgets;
- final leaf count L <= 4 C(s+t, t) - 1;
- final advantage, measured by exhaustive evaluation, at least
  (1/10 - eps - 30 (s+1) delta^(1/4)) |mu| - Delta * L.

Tree balancing rewrites any protocol tree into an equivalent one of depth
at most ceil((171/50) log2 L) + 2 by repeatedly splitting at a node whose
subtree holds between a third and two thirds of the leaves (two bits per
round); the rewritten tree is verified pointwise equal to the input.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .ccbounds import SrecInstance, srec_bound, srec_weights
from .errors import (
    CapExceededError,
    DecompositionError,
    DimensionMismatchError,
    InfeasibleConstructionError,
    NoBiasedRectangleError,
)
from .model import (
    ProductDistribution2P,
    Rectangle,
    TwoPartyFunction,
    full_rectangle,
    popular_label,
)
from .rational import ceil_mul_log2, largest_fourth_power_at_most
from .records import Record
from .trees import Leaf, PNode, ProtocolTree, advantage, evaluate, leaf_count, tree_depth

RectWeights = dict[Rectangle, Fraction]

# part 2 builds Delta = 2**(-5 k**2): about 10 MB of integer at this k
MAX_PART2_K = 4096


# ---------------------------------------------------------------------------
# biased rectangle extraction and the decomposition step


def weight_value(weights: RectWeights) -> Fraction:
    return sum(weights.values(), Fraction(0))


def find_biased_rectangle(
    f: TwoPartyFunction,
    mu: ProductDistribution2P,
    active: Rectangle,
    weights: RectWeights,
    rho: Fraction,
    eps: Fraction,
    delta: Fraction,
    z: int,
) -> Rectangle:
    """S = R & active for a support rectangle R biased toward z on ``active``.

    Masses are ``mu``'s on ``active``, read as integer label sums over the
    measure's denominator; every test below is linear in them.  Bias:
    mu_{1-z}(S) <= rho * mu_z(S).  Mass: among biased support rectangles
    the one maximizing mu_z(S) is taken (ties broken by enumeration order),
    and by averaging it satisfies

        mu_z(S) >= (1/V) * ((1-eps) mu_z(active) - (delta/rho) mu_{1-z}(active)),

    V the sum of the weights, which is verified exactly.  Requires the
    right-hand side positive and the support nonempty.
    """
    sums = mu.label_sums(f, active)
    den = mu.point_weights[0]
    demand = (1 - eps) * sums[z] - (delta / rho) * sums[1 - z]  # over den
    if demand <= 0:
        raise NoBiasedRectangleError(
            f"no biased rectangle: (1-eps) mu_{z} - (delta/rho) mu_{1-z} = {demand / den} <= 0"
        )
    best: Rectangle | None = None
    best_mass: int | None = None
    for rect in sorted(weights, key=lambda r: (r.rows, r.cols)):
        if weights[rect] <= 0:
            continue
        sums = mu.label_sums(f, rect.intersect(active))
        m_z, m_other = sums[z], sums[1 - z]
        if m_other > rho * m_z:
            continue
        if best_mass is None or m_z > best_mass:
            best, best_mass = rect, m_z
    if best is None or best_mass is None:
        raise NoBiasedRectangleError("no biased rectangle in the solution support")
    if best_mass * weight_value(weights) < demand:
        raise InfeasibleConstructionError(
            f"biased rectangle mass {Fraction(best_mass, den)} below the guaranteed level"
        )
    return best.intersect(active)


class Decomposition(Record):
    """Outcome of the off-diagonal case analysis for a biased block S.

    ``case`` names the off-diagonal block ("01" is X0 x Y1, "10" is
    X1 x Y0).  ``restricted`` is None when the block is already lopsided
    toward the biased label and a single leaf suffices; else it holds the
    restricted covering-side solution (maybe empty) and ``sub_eps`` its
    recomputed error level.
    """

    case: str
    restricted: RectWeights | None
    sub_eps: Fraction | None
    block: Rectangle


def decompose(
    f: TwoPartyFunction,
    mu: ProductDistribution2P,
    s_rect: Rectangle,
    cover_weights: RectWeights,
    delta_root: Fraction,
    active: Rectangle,
    z: int,
) -> Decomposition:
    """Pick an off-diagonal block that shrinks the problem; exact checks.

    ``delta_root`` is q with delta = q**4; the restriction threshold is
    10 q / D over the block's mass fraction, D the covering solution's
    objective.  Masses are integer label sums over the measure's
    denominator: each test is linear in them, and ``sub_eps`` a ratio of
    them.  Preference order: ("01","a"), ("01","b"), ("10","a"), ("10","b").
    Failure of all four contradicts the product structure and raises
    DecompositionError.
    """
    q = delta_root
    cover_z = 1 - z
    d_value = weight_value(cover_weights)
    rows0 = s_rect.rows & active.rows
    cols0 = s_rect.cols & active.cols
    rows1 = active.rows & ~s_rect.rows
    cols1 = active.cols & ~s_rect.cols
    blocks = {"01": Rectangle(rows0, cols1), "10": Rectangle(rows1, cols0)}
    for case in ("01", "10"):
        block = blocks[case]
        sums = mu.label_sums(f, block)
        m_biased, m_cover = sums[z], sums[cover_z]
        if 2 * m_cover <= m_biased:  # also every zero-mass block
            return Decomposition(case, None, None, block)
        block_mass = m_biased + m_cover
        # the restricted family: rectangles meeting the block heavily
        threshold = (10 * q / d_value) * block_mass if d_value > 0 else None
        restricted: RectWeights = {}
        covered = Fraction(0)
        numer = Fraction(0)
        for rect, w in cover_weights.items():
            if w <= 0:
                continue
            part = mu.label_sums(f, rect.intersect(block))
            carried = w * part[cover_z]
            numer += carried
            if threshold is not None and sum(part) >= threshold:
                restricted[rect] = w
                covered += carried
        sub_eps = Fraction(0) if m_cover == 0 else 1 - numer / m_cover
        sub_eps = sub_eps + 30 * q
        objective_ok = weight_value(restricted) <= Fraction(9, 10) * d_value
        covering_ok = covered >= (1 - sub_eps) * m_cover
        if objective_ok and covering_ok:
            return Decomposition(case, restricted, sub_eps, block)
    raise DecompositionError(
        "neither off-diagonal case verified; non-product measure or solver bug"
    )


# ---------------------------------------------------------------------------
# synthesis parameters


class SynthParams(Record):
    """Error levels and budgets for one synthesis run.

    delta must equal delta_root**4; s and t must clear their exact
    thresholds, which are validated against the LP solution values by
    ``validate`` (integer power comparisons, never floating point).
    """

    eps: Fraction
    delta: Fraction
    delta_root: Fraction
    big_delta: Fraction
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.delta_root**4 != self.delta:
            raise InfeasibleConstructionError("delta is not the fourth power of delta_root")
        if not (0 <= self.eps <= 1 and 0 < self.delta < 1):
            raise InfeasibleConstructionError("eps must be in [0,1] and delta in (0,1)")
        if self.s < 0 or self.t < 0:
            raise InfeasibleConstructionError("budgets must be non-negative")

    def validate(self, mu_total: Fraction, value0: Fraction, value1: Fraction) -> None:
        _check_big_delta(self.big_delta, mu_total)
        s_min = minimum_s(value0, value1)
        if self.s < s_min:
            raise InfeasibleConstructionError(f"s = {self.s} below the threshold {s_min}")
        t_min = minimum_t(self.s, mu_total, self.big_delta)
        if self.t < t_min:
            raise InfeasibleConstructionError(f"t = {self.t} below the threshold {t_min}")


def _check_big_delta(big_delta: Fraction, mu_total: Fraction) -> None:
    if not 0 < big_delta < mu_total:
        raise InfeasibleConstructionError(
            f"Delta must lie strictly between 0 and |mu| = {mu_total}"
        )


def advantage_floor(
    eps: Fraction, q: Fraction, s: int, mu_total: Fraction, big_delta: Fraction, leaves: int
) -> tuple[int, int]:
    """(1/10 - eps - 30 (s+1) q) |mu| - Delta * L as (numerator, denominator), not reduced.

    The first term is a small Fraction a / b; Delta = e / f has f = 2^(5 k^2)
    in part 2.  Over b * f the floor costs three products, where a Fraction
    sum takes gcds and divisions over f's millions of bits.
    """
    c = (Fraction(1, 10) - eps - 30 * (s + 1) * q) * mu_total
    a, b, f = c.numerator, c.denominator, big_delta.denominator
    return a * f - big_delta.numerator * leaves * b, b * f


def minimum_s(value0: Fraction, value1: Fraction) -> int:
    """ceil(100 * log2(2 (V0 + V1))), or 0 when that is not positive."""
    doubled = 2 * (value0 + value1)
    if doubled <= 1:
        return 0
    return ceil_mul_log2(100, doubled)


def within_leaf_budget(leaves: int, s: int, t: int) -> bool:
    """leaves <= 4 * C(s + t, min(s, t)) - 1, without building the binomial.

    c = C(max(s, t) + i, i) for i = 0, 1, ..., min(s, t) never decreases
    and ends at C(s + t, min(s, t)), so the first c with 4c - 1 >= leaves
    settles it; the leaf counts here are small, the budgets can be huge.
    """
    c = 1
    for i in range(1, min(s, t) + 1):
        if 4 * c > leaves:
            return True
        c = c * (max(s, t) + i) // i
    return 4 * c > leaves


@functools.lru_cache(maxsize=1)
def minimum_t(s: int, mu_total: Fraction, big_delta: Fraction) -> int:
    """ceil(100 * 2^s * log2(|mu| / Delta)), or 0 when that is not positive.

    Cached for its last arguments: ``protocol_pipeline`` and then
    ``SynthParams.validate`` ask for the same t.
    """
    ratio = mu_total / big_delta
    if ratio <= 1:
        return 0
    return ceil_mul_log2(100 * (1 << s), ratio)


# ---------------------------------------------------------------------------
# the induction


def synthesize(
    f: TwoPartyFunction,
    mu: ProductDistribution2P,
    params: SynthParams,
    weights0: RectWeights,
    weights1: RectWeights,
) -> ProtocolTree:
    """Build a protocol tree meeting the leaf and advantage guarantees.

    ``weights0`` / ``weights1`` must be feasible for the z=0 / z=1
    distributional LPs at (eps, delta); params invariants are validated
    against their objective values.  Both final guarantees are verified
    exactly before the tree is returned (the advantage by exhaustive
    evaluation, never the recursion's own accounting).  The restricted
    solutions are carried down the recursion unchanged, and every node
    reads ``mu`` on its active rectangle.
    """
    if mu.nx != f.nx or mu.ny != f.ny:
        raise DimensionMismatchError("measure shape does not match function")
    params.validate(mu.total, weight_value(weights0), weight_value(weights1))
    q = params.delta_root
    rho = q * q
    tenth = Fraction(1, 10)

    def build(
        active: Rectangle, eps: Fraction, s: int, t: int, w0: RectWeights, w1: RectWeights
    ) -> ProtocolTree:
        """The subtree on ``active`` with budgets (s, t); the module
        docstring lists its leaves and why s = 0 is never reached."""
        m0, m1 = mu.label_sums(f, active)
        lopsided = max(m0, m1) >= 2 * min(m0, m1)
        budget = eps + 30 * (s + 1) * q >= tenth
        if lopsided or budget or s == 0 or t == 0:
            return Leaf(popular_label(m0, m1))

        z_star = 0 if weight_value(w0) <= weight_value(w1) else 1
        bias_w, cover_w = (w0, w1) if z_star == 0 else (w1, w0)
        s_rect = find_biased_rectangle(f, mu, active, bias_w, rho, eps, params.delta, z_star)
        dec = decompose(f, mu, s_rect, cover_w, q, active, z_star)

        if dec.restricted is None:
            block_tree: ProtocolTree = Leaf(z_star)
        else:
            assert dec.sub_eps is not None
            sub_w0, sub_w1 = (w0, dec.restricted) if z_star == 0 else (dec.restricted, w1)
            block_tree = build(dec.block, dec.sub_eps, s - 1, t, sub_w0, sub_w1)

        # block "01" (X0 x Y1): A asks about X0, then B about Y0; block "10" the other way round
        first, second = ("A", s_rect.rows), ("B", s_rect.cols)
        rest = Rectangle(active.rows & ~s_rect.rows, active.cols)
        if dec.case == "10":
            first, second = second, first
            rest = Rectangle(active.rows, active.cols & ~s_rect.cols)
        rest_tree = build(rest, eps, s, t - 1, w0, w1)
        tree = PNode(*first, PNode(*second, Leaf(z_star), block_tree), rest_tree)

        l_sub, l_rest = leaf_count(block_tree), leaf_count(rest_tree)
        if not (within_leaf_budget(l_sub, s - 1, t) and within_leaf_budget(l_rest, s, t - 1)):
            raise InfeasibleConstructionError("child leaf budget exceeded")
        if not within_leaf_budget(1 + l_sub + l_rest, s, t):
            raise InfeasibleConstructionError("node leaf budget exceeded")
        return tree

    tree = build(full_rectangle(f), params.eps, params.s, params.t, weights0, weights1)

    leaves = leaf_count(tree)
    if not within_leaf_budget(leaves, params.s, params.t):
        budget = 4 * math.comb(params.s + params.t, min(params.s, params.t)) - 1
        raise InfeasibleConstructionError(f"leaf count {leaves} exceeds {budget}")
    adv = advantage(tree, f, mu)
    num, den = advantage_floor(params.eps, q, params.s, mu.total, params.big_delta, leaves)
    if adv.numerator * den < num * adv.denominator:
        raise InfeasibleConstructionError(
            f"measured advantage {float(adv):.6g} below the guaranteed floor {num / den:.6g}"
        )
    return tree


# ---------------------------------------------------------------------------
# balancing


BALANCE_NUM = 171  # depth target: ceil((171/50) * log2 L) + 2
BALANCE_DEN = 50


def balance_depth_target(leaves: int) -> int:
    if leaves <= 1:
        return 2
    m = ceil_mul_log2(BALANCE_NUM, Fraction(leaves))
    return -(-m // BALANCE_DEN) + 2


def balance(tree: ProtocolTree, nx: int, ny: int) -> ProtocolTree:
    """Equivalent tree of depth <= ceil((171/50) log2 L) + 2.

    Splits at a node whose subtree holds between a third and two thirds of
    the leaves: both parties announce whether their input can reach that
    node (two bits), entering either the subtree or the tree with the
    subtree contracted to a leaf.  Leaf count at most squares.  The result
    is verified pointwise equal to the input over the full nx x ny domain.
    """
    out = _balance(tree, (1 << nx) - 1, (1 << ny) - 1)
    leaves = leaf_count(tree)
    depth = tree_depth(out)
    target = balance_depth_target(leaves)
    if depth > target:
        raise InfeasibleConstructionError(
            f"balanced depth {depth} exceeds target {target}"
        )
    if leaf_count(out) > leaves * leaves:
        raise InfeasibleConstructionError("balanced leaf count exceeded the square")
    for x in range(nx):
        for y in range(ny):
            if evaluate(out, x, y) != evaluate(tree, x, y):
                raise InfeasibleConstructionError(
                    f"balanced tree disagrees with the input at ({x},{y})"
                )
    return out


def _balance(tree: ProtocolTree, full_rows: int, full_cols: int) -> ProtocolTree:
    total = leaf_count(tree)
    if total <= 3:
        return tree

    # walk toward the heavier child until the subtree first holds at most
    # two thirds of the leaves; it then holds more than a third
    node = tree
    rows, cols = full_rows, full_cols
    while True:
        assert isinstance(node, PNode)
        c_in = leaf_count(node.inside)
        c_out = leaf_count(node.outside)
        child, heavier = (
            (node.inside, True) if c_in >= c_out else (node.outside, False)
        )
        if node.speaker == "A":
            rows = rows & node.split if heavier else rows & ~node.split
        else:
            cols = cols & node.split if heavier else cols & ~node.split
        count = max(c_in, c_out)
        if 3 * count <= 2 * total:
            splitter = child
            break
        node = child

    contracted = _replace(tree, splitter, Leaf(0))
    balanced_sub = _balance(splitter, full_rows, full_cols)
    balanced_rest = _balance(contracted, full_rows, full_cols)
    return PNode(
        "A",
        rows,
        PNode("B", cols, balanced_sub, balanced_rest),
        balanced_rest,
    )


def _replace(
    tree: ProtocolTree, target: ProtocolTree, replacement: ProtocolTree
) -> ProtocolTree:
    if tree is target:
        return replacement
    if isinstance(tree, Leaf):
        return tree
    inside = _replace(tree.inside, target, replacement)
    outside = _replace(tree.outside, target, replacement)
    if inside is tree.inside and outside is tree.outside:
        return tree
    return PNode(tree.speaker, tree.split, inside, outside)


# ---------------------------------------------------------------------------
# end-to-end pipelines


class CCSynthReport(Record):
    """End-to-end protocol synthesis record with its exact assertions.

    ``synthesize`` has checked the tree's advantage against ``adv_floor``.
    When the premise fails, ``params.t`` is 0 and the trees and the floor
    are None.
    """

    params: SynthParams
    tree: ProtocolTree | None
    balanced: ProtocolTree | None
    adv_floor: Fraction | None
    twentieth_applicable: bool
    notes: tuple[str, ...]

    @property
    def hypothesis_ok(self) -> bool:
        return self.tree is not None

    @property
    def leaves(self) -> int | None:
        return None if self.tree is None else leaf_count(self.tree)

    @property
    def balanced_depth(self) -> int | None:
        return None if self.balanced is None else tree_depth(self.balanced)


def protocol_pipeline(
    f: TwoPartyFunction,
    mu: ProductDistribution2P,
    part: int,
    k: int | None = None,
) -> CCSynthReport:
    """Solve both distributional LPs, synthesize, balance, and certify.

    Part 1 takes no k and uses eps = delta = the largest fourth power at
    most 1/n**2 and Delta = 2**(-4n), with minimal valid (s, t).  Part 2
    requires 20 <= k <= MAX_PART2_K, uses eps = delta = the largest fourth
    power at most 1/(3000 (k+1)**4) and Delta = 2**(-5 k**2) with s = k;
    the premise ceil(100 log2 srec) <= k (and s = k clearing the induction
    threshold) is verified from the solved values, and failure is
    reported, not fatal.

    The advantage floor of the induction is always asserted.  The report
    records ``twentieth_applicable``, whether the coefficient
    1/10 - eps - 30(s+1) delta^(1/4) reaches 1/20 (where the floor would
    give |mu|/20 - Delta*L), but it is never true on a supported input:
    30 (s+1) delta^(1/4) exceeds 1/10 in both parts.
    """
    if f.nx != f.ny:
        raise DimensionMismatchError("square domains only")
    n = f.nx.bit_length() - 1
    notes: list[str] = []
    if part == 1:
        if k is not None:
            raise DimensionMismatchError("part 1 takes no k; only part 2 reads it")
        if n < 2:  # delta <= 1/n**2 must lie in (0, 1)
            raise DimensionMismatchError("part 1 needs at least 4 x 4 inputs")
        target = Fraction(1, n * n)
        big_delta = Fraction(1, 1 << (4 * n))
    elif part == 2:
        if k is None or k < 20:
            raise DimensionMismatchError("part 2 requires an explicit k >= 20")
        if k > MAX_PART2_K:  # checked before 2**(5 k**2) is built
            raise CapExceededError(f"part 2 takes k <= {MAX_PART2_K}, got {k}")
        target = Fraction(1, 3000 * (k + 1) ** 4)
        big_delta = Fraction(1, 1 << (5 * k * k))
    else:
        raise DimensionMismatchError("part must be 1 or 2")
    q, delta = largest_fourth_power_at_most(target)
    eps = delta

    _check_big_delta(big_delta, mu.total)  # before either LP is solved
    r0 = srec_bound(SrecInstance(f, 0, eps, delta, mu))
    r1 = srec_bound(SrecInstance(f, 1, eps, delta, mu))
    v0, v1 = r0.value, r1.value
    s_min = minimum_s(v0, v1)

    if part == 1:
        s = s_min
        hypothesis_ok = True
    else:
        assert k is not None
        vmax = max(v0, v1)
        premise = 0 if vmax <= 1 else ceil_mul_log2(100, vmax)
        hypothesis_ok = premise <= k and k >= s_min
        if premise > k:
            notes.append(f"premise ceil(100 log2 srec) = {premise} exceeds k = {k}")
        if k < s_min:
            notes.append(f"k = {k} is below the induction threshold s_min = {s_min}")
        s = k

    t = minimum_t(s, mu.total, big_delta) if hypothesis_ok else 0
    params = SynthParams(eps, delta, q, big_delta, s, t)
    if not hypothesis_ok:
        return CCSynthReport(params, None, None, None, False, tuple(notes))

    tree = synthesize(f, mu, params, srec_weights(r0), srec_weights(r1))
    balanced = balance(tree, f.nx, f.ny)
    leaves = leaf_count(tree)
    adv_floor = Fraction(*advantage_floor(eps, q, s, mu.total, big_delta, leaves))
    if part == 2:
        assert k is not None
        if leaves > 1 << (4 * k * k):
            raise InfeasibleConstructionError(f"leaf count {leaves} exceeds 2^(4k^2)")
    return CCSynthReport(
        params=params,
        tree=tree,
        balanced=balanced,
        adv_floor=adv_floor,
        twentieth_applicable=Fraction(1, 10) - eps - 30 * (s + 1) * q >= Fraction(1, 20),
        notes=tuple(notes),
    )
