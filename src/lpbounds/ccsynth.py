"""Protocol tree synthesis from distributional smooth-rectangle solutions.

The induction builds a tree with few leaves from feasible weight maps for
the z=0 and z=1 distributional LPs.  At each step the side with the
smaller objective value supplies a large biased rectangle S = X0 x Y0
(bias rho = sqrt(delta)); the other side's solution either shows the
off-diagonal block is already lopsided (answer the biased label) or
restricts to a sub-solution whose objective drops by the factor 0.9 and
whose covering level is recomputed exactly.  The recursion then branches:

    [speaker announces membership in the biased block]
      inside,inside  -> leaf with the biased label          (S itself)
      inside,outside -> recurse at (s-1, t) on the restricted solution
      outside        -> recurse at (s, t-1), same solutions and error

Leaves absorb the degenerate cases: lopsided mass (one label holds at
least twice the other), an exhausted advantage budget
(eps + 30 (s+1) delta^(1/4) >= 1/10), s = 0 (a three-leaf one-exchange
protocol from the best support rectangle), t = 0, and an overflowing
recomputed covering level.

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

import math
from dataclasses import dataclass
from fractions import Fraction

from .ccbounds import SrecInstance, srec_bound, srec_weights
from .errors import (
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
from .trees import Leaf, PNode, ProtocolTree, advantage, evaluate, leaf_count, tree_depth

RectWeights = dict[Rectangle, Fraction]


# ---------------------------------------------------------------------------
# biased rectangle extraction and the decomposition step


def weight_value(weights: RectWeights) -> Fraction:
    return sum(weights.values(), Fraction(0))


def find_biased_rectangle(
    f: TwoPartyFunction,
    mu: ProductDistribution2P,
    weights: RectWeights,
    rho: Fraction,
    bound: Fraction,
    eps: Fraction,
    delta: Fraction,
    z: int,
) -> Rectangle:
    """A support rectangle S biased toward z with guaranteed z-mass.

    Bias: mu_{1-z}(S) <= rho * mu_z(S).  Mass: among biased support
    rectangles the one maximizing mu_z(S) is returned (ties broken by
    enumeration order), and by averaging it satisfies

        mu_z(S) >= (1/bound) * ((1-eps) mu_z - (delta/rho) mu_{1-z}),

    which is verified exactly.  Requires the right-hand side positive and
    the support nonempty.
    """
    masses = mu.label_masses(f, full_rectangle(f))
    mu_z, mu_other = masses[z], masses[1 - z]
    demand = (1 - eps) * mu_z - (delta / rho) * mu_other
    if demand <= 0:
        raise NoBiasedRectangleError(
            f"no biased rectangle: (1-eps) mu_{z} - (delta/rho) mu_{1-z} = {demand} <= 0"
        )
    best: Rectangle | None = None
    best_mass: Fraction | None = None
    for rect in sorted(weights, key=lambda r: (r.rows, r.cols)):
        if weights[rect] <= 0:
            continue
        masses = mu.label_masses(f, rect)
        m_z, m_other = masses[z], masses[1 - z]
        if m_other > rho * m_z:
            continue
        if best_mass is None or m_z > best_mass:
            best, best_mass = rect, m_z
    if best is None or best_mass is None:
        raise NoBiasedRectangleError("no biased rectangle in the solution support")
    if best_mass * bound < demand:
        raise InfeasibleConstructionError(
            f"biased rectangle mass {best_mass} below the guaranteed level"
        )
    return best


@dataclass(frozen=True)
class Decomposition:
    """Outcome of the off-diagonal case analysis for a biased block S.

    ``case`` names the off-diagonal block ("01" is X0 x Y1, "10" is
    X1 x Y0).  Alternative "a" means the block is already lopsided toward
    the biased label and a single leaf suffices; alternative "b" carries
    the restricted covering-side solution and its recomputed error level.
    """

    case: str
    alternative: str
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
    objective.  Preference order: ("01","a"), ("01","b"), ("10","a"),
    ("10","b").  Failure of all four contradicts the product structure and
    raises DecompositionError.
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
        masses = mu.label_masses(f, block)
        m_biased, m_cover = masses[z], masses[cover_z]
        if 2 * m_cover <= m_biased:
            return Decomposition(case, "a", None, None, block)
        block_mass = m_biased + m_cover
        if block_mass == 0:
            return Decomposition(case, "a", None, None, block)
        # the restricted family: rectangles meeting the block heavily
        threshold = (10 * q / d_value) * block_mass if d_value > 0 else None
        restricted: RectWeights = {}
        covered = Fraction(0)
        numer = Fraction(0)
        for rect, w in cover_weights.items():
            if w <= 0:
                continue
            part_masses = mu.label_masses(f, rect.intersect(block))
            carried = w * part_masses[cover_z]
            numer += carried
            if threshold is not None and sum(part_masses) >= threshold:
                restricted[rect] = w
                covered += carried
        sub_eps = Fraction(0) if m_cover == 0 else 1 - numer / m_cover
        sub_eps = sub_eps + 30 * q
        objective_ok = weight_value(restricted) <= Fraction(9, 10) * d_value
        covering_ok = covered >= (1 - sub_eps) * m_cover
        if objective_ok and covering_ok:
            return Decomposition(case, "b", restricted, sub_eps, block)
    raise DecompositionError(
        "neither off-diagonal case verified; non-product measure or solver bug"
    )


# ---------------------------------------------------------------------------
# synthesis parameters


@dataclass(frozen=True)
class SynthParams:
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
        if not 0 < self.big_delta < mu_total:
            raise InfeasibleConstructionError(
                f"Delta must lie strictly between 0 and |mu| = {mu_total}"
            )
        s_min = minimum_s(value0, value1)
        if self.s < s_min:
            raise InfeasibleConstructionError(f"s = {self.s} below the threshold {s_min}")
        t_min = minimum_t(self.s, mu_total, self.big_delta)
        if self.t < t_min:
            raise InfeasibleConstructionError(f"t = {self.t} below the threshold {t_min}")


def minimum_s(value0: Fraction, value1: Fraction) -> int:
    """ceil(100 * log2(2 (V0 + V1))), clamped to 0."""
    doubled = 2 * (value0 + value1)
    if doubled <= 1:
        return 0
    return max(0, ceil_mul_log2(100, doubled))


def minimum_t(s: int, mu_total: Fraction, big_delta: Fraction) -> int:
    """ceil(100 * 2^s * log2(|mu| / Delta)), clamped to 0."""
    ratio = mu_total / big_delta
    if ratio <= 1:
        return 0
    return max(0, ceil_mul_log2(100 * (1 << s), ratio))


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
    solutions are carried down the recursion unchanged.
    """
    if mu.nx != f.nx or mu.ny != f.ny:
        raise DimensionMismatchError("measure shape does not match function")
    params.validate(mu.total, weight_value(weights0), weight_value(weights1))
    q = params.delta_root
    rho = q * q
    tenth = Fraction(1, 10)
    full = full_rectangle(f)

    def build(
        active: Rectangle,
        cur: ProductDistribution2P,
        eps: Fraction,
        s: int,
        t: int,
        w0: RectWeights,
        w1: RectWeights,
    ) -> ProtocolTree:
        m0, m1 = cur.label_masses(f, full)
        if max(m0, m1) >= 2 * min(m0, m1):
            return Leaf(popular_label(m0, m1))
        if eps + 30 * (s + 1) * q >= tenth:
            return Leaf(popular_label(m0, m1))
        if s == 0:
            return _one_exchange(f, cur, w1, active)
        if t == 0:
            return Leaf(popular_label(m0, m1))

        value0 = weight_value(w0)
        value1 = weight_value(w1)
        z_star = 0 if value0 <= value1 else 1
        bias_w, cover_w = (w0, w1) if z_star == 0 else (w1, w0)
        s_rect = find_biased_rectangle(
            f, cur, bias_w, rho, weight_value(bias_w), eps, params.delta, z_star
        )
        s_rect = Rectangle(s_rect.rows & active.rows, s_rect.cols & active.cols)
        dec = decompose(f, cur, s_rect, cover_w, q, active, z_star)

        if dec.alternative == "a":
            block_tree: ProtocolTree = Leaf(z_star)
        elif dec.sub_eps is not None and dec.sub_eps > 1:
            block_tree = Leaf(popular_label(*cur.label_masses(f, dec.block)))
        else:
            assert dec.restricted is not None and dec.sub_eps is not None
            restricted = dec.restricted
            sub_w0, sub_w1 = (w0, restricted) if z_star == 0 else (restricted, w1)
            block_tree = build(
                dec.block,
                cur.restrict(dec.block),
                dec.sub_eps,
                s - 1,
                t,
                sub_w0,
                sub_w1,
            )

        if dec.case == "01":
            rest = Rectangle(active.rows & ~s_rect.rows, active.cols)
            rest_tree = build(rest, cur.restrict(rest), eps, s, t - 1, w0, w1)
            tree: ProtocolTree = PNode(
                "A",
                s_rect.rows,
                PNode("B", s_rect.cols, Leaf(z_star), block_tree),
                rest_tree,
            )
        else:
            rest = Rectangle(active.rows, active.cols & ~s_rect.cols)
            rest_tree = build(rest, cur.restrict(rest), eps, s, t - 1, w0, w1)
            tree = PNode(
                "B",
                s_rect.cols,
                PNode("A", s_rect.rows, Leaf(z_star), block_tree),
                rest_tree,
            )

        sub_budget = 4 * math.comb(s - 1 + t, min(s - 1, t)) - 1
        rest_budget = 4 * math.comb(s + t - 1, min(s, t - 1)) - 1
        node_budget = 4 * math.comb(s + t, min(s, t)) - 1
        l_sub, l_rest = leaf_count(block_tree), leaf_count(rest_tree)
        if l_sub > sub_budget or l_rest > rest_budget:
            raise InfeasibleConstructionError("child leaf budget exceeded")
        if 1 + l_sub + l_rest > node_budget:
            raise InfeasibleConstructionError("node leaf budget exceeded")
        return tree

    tree = build(full, mu, params.eps, params.s, params.t, weights0, weights1)

    leaves = leaf_count(tree)
    budget = 4 * math.comb(params.s + params.t, min(params.s, params.t)) - 1
    if leaves > budget:
        raise InfeasibleConstructionError(f"leaf count {leaves} exceeds {budget}")
    adv = advantage(tree, f, mu)
    floor_adv = (
        (tenth - params.eps - 30 * (params.s + 1) * q) * mu.total
        - params.big_delta * leaves
    )
    if adv < floor_adv:
        raise InfeasibleConstructionError(
            f"measured advantage {adv} below the guaranteed floor {floor_adv}"
        )
    return tree


def _one_exchange(
    f: TwoPartyFunction,
    cur: ProductDistribution2P,
    cover_weights: RectWeights,
    active: Rectangle,
) -> ProtocolTree:
    """s = 0 base: one bit from each party around the best support rectangle.

    Answer 1 inside the chosen rectangle, 0 elsewhere.  The rectangle is
    the support element minimizing exact error mass (scanning replaces
    sampling in proportion to the weights: the minimum cannot exceed the
    average).  Empty support degrades to the most popular label.
    """
    m0, m1 = cur.label_masses(f, full_rectangle(f))
    best: Rectangle | None = None
    best_err: Fraction | None = None
    for rect in sorted(cover_weights, key=lambda r: (r.rows, r.cols)):
        if cover_weights[rect] <= 0:
            continue
        clipped = Rectangle(rect.rows & active.rows, rect.cols & active.cols)
        c0, c1 = cur.label_masses(f, clipped)
        err = (m1 - c1) + c0
        if best_err is None or err < best_err:
            best, best_err = clipped, err
    if best is None:
        return Leaf(popular_label(m0, m1))
    return PNode(
        "A",
        best.rows,
        PNode("B", best.cols, Leaf(1), Leaf(0)),
        Leaf(0),
    )


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


@dataclass(frozen=True)
class CCSynthReport:
    """End-to-end protocol synthesis record with its exact assertions."""

    part: int
    k: int | None
    eps: Fraction
    delta: Fraction
    delta_root: Fraction
    big_delta: Fraction
    s: int
    t: int
    value0: Fraction
    value1: Fraction
    hypothesis_ok: bool
    tree: ProtocolTree | None
    balanced: ProtocolTree | None
    leaves: int | None
    depth: int | None
    balanced_depth: int | None
    adv: Fraction | None
    adv_floor: Fraction | None
    twentieth_applicable: bool
    notes: tuple[str, ...] = ()


def protocol_pipeline(
    f: TwoPartyFunction,
    mu: ProductDistribution2P,
    part: int,
    k: int | None = None,
) -> CCSynthReport:
    """Solve both distributional LPs, synthesize, balance, and certify.

    Part 1 uses eps = delta = the largest fourth power at most 1/n**2 and
    Delta = 2**(-4n), with minimal valid (s, t).  Part 2 requires k >= 20,
    uses eps = delta = the largest fourth power at most
    1/(3000 (k+1)**4) and Delta = 2**(-5 k**2) with s = k; the premise
    ceil(100 log2 srec) <= k (and s = k clearing the induction threshold)
    is verified from the solved values, and failure is reported, not fatal.

    The advantage floor of the induction is always asserted.  The stronger
    |mu|/20 - Delta*L form is asserted only when the instance's exact
    coefficient 1/10 - eps - 30(s+1) delta^(1/4) reaches 1/20; otherwise
    the report marks it inapplicable at these parameters.
    """
    if f.nx != f.ny:
        raise DimensionMismatchError("square domains only")
    n = f.nx.bit_length() - 1
    notes: list[str] = []
    if part == 1:
        if n < 2:  # delta <= 1/n**2 must lie in (0, 1)
            raise DimensionMismatchError("part 1 needs at least 4 x 4 inputs")
        target = Fraction(1, n * n)
        q, delta = largest_fourth_power_at_most(target)
        eps = delta
        big_delta = Fraction(1, 1 << (4 * n))
    elif part == 2:
        if k is None or k < 20:
            raise ValueError("part 2 requires an explicit k >= 20")
        target = Fraction(1, 3000 * (k + 1) ** 4)
        q, delta = largest_fourth_power_at_most(target)
        eps = delta
        big_delta = Fraction(1, 1 << (5 * k * k))
    else:
        raise ValueError("part must be 1 or 2")

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

    if not hypothesis_ok:
        return CCSynthReport(
            part, k, eps, delta, q, big_delta, s, 0, v0, v1, False,
            None, None, None, None, None, None, None, False, tuple(notes),
        )

    t = minimum_t(s, mu.total, big_delta)
    params = SynthParams(eps, delta, q, big_delta, s, t)
    tree = synthesize(f, mu, params, srec_weights(r0), srec_weights(r1))
    balanced = balance(tree, f.nx, f.ny)
    leaves = leaf_count(tree)
    adv = advantage(tree, f, mu)
    coeff = Fraction(1, 10) - eps - 30 * (s + 1) * q
    adv_floor = coeff * mu.total - big_delta * leaves
    twentieth = coeff >= Fraction(1, 20)
    if twentieth and adv < mu.total / 20 - big_delta * leaves:
        raise InfeasibleConstructionError("advantage below |mu|/20 - Delta*L")
    if part == 2:
        assert k is not None
        if leaves > 1 << (4 * k * k):
            raise InfeasibleConstructionError(f"leaf count {leaves} exceeds 2^(4k^2)")
    if advantage(balanced, f, mu) != adv:
        raise InfeasibleConstructionError("balancing changed the advantage")
    return CCSynthReport(
        part=part,
        k=k,
        eps=eps,
        delta=delta,
        delta_root=q,
        big_delta=big_delta,
        s=s,
        t=t,
        value0=v0,
        value1=v1,
        hypothesis_ok=True,
        tree=tree,
        balanced=balanced,
        leaves=leaves,
        depth=tree_depth(tree),
        balanced_depth=tree_depth(balanced),
        adv=adv,
        adv_floor=adv_floor,
        twentieth_applicable=twentieth,
        notes=tuple(notes),
    )
