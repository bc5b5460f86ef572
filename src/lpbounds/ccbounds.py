"""Communication-side LP bounds over rectangles.

Four linear programs are built here, all minimizing total rectangle weight
subject to per-point packing/cap constraints:

smooth rectangle, worst case (per output z):
    min sum_R w_R
    sum_{R ni (x,y)} w_R >= 1 - eps          for (x,y) in f^-1(z)   (covering)
    sum_{R ni (x,y)} w_R <= delta            for (x,y) off f^-1(z)  (packing)
    sum_{R ni (x,y)} w_R <= 1                for all (x,y)          (cap)

smooth rectangle, distributional: the per-point covering rows collapse to
the single averaged row
    sum_{(x,y) in f^-1(z)} mu(x,y) * sum_{R ni (x,y)} w_R >= (1-eps) mu_z
while packing and cap stay per-point.

partition bound: labeled weights w_{z,R}, per-point correct-label mass
covering >= 1-eps, and per-point *total* mass exactly 1; the relaxed
partition bound weakens the equality to <= 1.  Their explicit duals (free
phi for the equality version, nonnegative phi for the relaxed one) are
built alongside for independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp as lpmod
from .boosting import majority_product_boost
from .errors import DimensionMismatchError, InfeasibleConstructionError
from .lp import Constraint, LinearProgram, LPSolution
from .model import (
    ProductDistribution2P,
    Rectangle,
    TwoPartyFunction,
    enumerate_rectangles,
    full_rectangle,
    measure,
)
from .rational import format_rational, log2_bracket, majority_error

LabeledRectWeights = dict[tuple[int, Rectangle], Fraction]


def _rect_var(rect: Rectangle) -> str:
    return f"w_{rect.rows:x}_{rect.cols:x}"


def _labeled_var(z: int, rect: Rectangle) -> str:
    return f"w{z}_{rect.rows:x}_{rect.cols:x}"


def _rect_from_var(name: str) -> tuple[int | None, Rectangle]:
    head, rows, cols = name.split("_")
    z = None if head == "w" else int(head[1:])
    return z, Rectangle(int(rows, 16), int(cols, 16))


def check_unit_interval(name: str, value: Fraction) -> None:
    """Error parameters are probabilities; anything outside [0,1] is rejected."""
    if not 0 <= value <= 1:
        raise DimensionMismatchError(f"{name} must lie in [0,1], got {format_rational(value)}")


@dataclass(frozen=True)
class SrecInstance:
    """One smooth-rectangle LP: function, output z, error pair, optional mu."""

    f: TwoPartyFunction
    z: int
    eps: Fraction
    delta: Fraction
    mu: ProductDistribution2P | None = None

    def __post_init__(self) -> None:
        if self.z not in (0, 1):
            raise DimensionMismatchError(f"z must be 0 or 1, got {self.z}")
        check_unit_interval("eps", self.eps)
        check_unit_interval("delta", self.delta)
        if self.mu is not None and (self.mu.nx != self.f.nx or self.mu.ny != self.f.ny):
            raise DimensionMismatchError("distribution shape does not match function")


@dataclass(frozen=True)
class BoundResult:
    """Solved bound value with its LP solution and a log2 bracket.

    ``log2_lo``/``log2_hi`` bracket log2(value) to width <= 2**-20; they are
    None when the value is 0.
    """

    kind: str
    value: Fraction
    solution: LPSolution
    log2_lo: Fraction | None
    log2_hi: Fraction | None

    @property
    def support_size(self) -> int:
        return len(self.solution.primal)


def _finish(kind: str, sol: LPSolution) -> BoundResult:
    if sol.status != "optimal":
        raise InfeasibleConstructionError(f"{kind} LP reported {sol.status}")
    assert sol.value is not None
    if sol.value == 0:
        return BoundResult(kind, sol.value, sol, None, None)
    lo, hi = log2_bracket(sol.value)
    return BoundResult(kind, sol.value, sol, lo, hi)


def build_srec_lp(inst: SrecInstance) -> LinearProgram:
    f, z = inst.f, inst.z
    rects = list(enumerate_rectangles(f.nx, f.ny))
    names = tuple(_rect_var(r) for r in rects)
    one = Fraction(1)
    objective = {name: one for name in names}

    containing: dict[tuple[int, int], dict[str, Fraction]] = {}
    for x in range(f.nx):
        for y in range(f.ny):
            containing[(x, y)] = {
                _rect_var(r): one for r in rects if r.contains(x, y)
            }

    constraints: list[Constraint] = []
    if inst.mu is None:
        for x in range(f.nx):
            for y in range(f.ny):
                if f.value(x, y) == z:
                    constraints.append(
                        Constraint(containing[(x, y)], ">=", 1 - inst.eps, f"cov_{x}_{y}")
                    )
    else:
        mu_z = measure(inst.mu, f, z, full_rectangle(f))
        row = {
            _rect_var(r): measure(inst.mu, f, z, r) for r in rects
        }
        constraints.append(Constraint(row, ">=", (1 - inst.eps) * mu_z, "cov"))
    for x in range(f.nx):
        for y in range(f.ny):
            if f.value(x, y) != z:
                constraints.append(
                    Constraint(containing[(x, y)], "<=", inst.delta, f"pack_{x}_{y}")
                )
    for x in range(f.nx):
        for y in range(f.ny):
            constraints.append(Constraint(containing[(x, y)], "<=", one, f"cap_{x}_{y}"))

    tag = "dist" if inst.mu is not None else "wc"
    return LinearProgram(
        name=f"srec[z={z},{tag}]",
        sense="min",
        variables=names,
        objective=objective,
        constraints=tuple(constraints),
    )


def srec_bound(inst: SrecInstance) -> BoundResult:
    kind = "srec-dist" if inst.mu is not None else "srec"
    return _finish(kind, lpmod.solve(build_srec_lp(inst)))


def srec_weights(result: BoundResult) -> dict[Rectangle, Fraction]:
    return {_rect_from_var(v)[1]: w for v, w in result.solution.primal.items()}


def _build_partition_lp(f: TwoPartyFunction, eps: Fraction, relaxed: bool) -> LinearProgram:
    check_unit_interval("eps", eps)
    rects = list(enumerate_rectangles(f.nx, f.ny))
    names = []
    for r in rects:
        names.append(_labeled_var(0, r))
        names.append(_labeled_var(1, r))
    one = Fraction(1)
    objective = {n: one for n in names}
    constraints: list[Constraint] = []
    for x in range(f.nx):
        for y in range(f.ny):
            zxy = f.value(x, y)
            cov = {_labeled_var(zxy, r): one for r in rects if r.contains(x, y)}
            constraints.append(Constraint(cov, ">=", 1 - eps, f"cov_{x}_{y}"))
    for x in range(f.nx):
        for y in range(f.ny):
            mass = {
                _labeled_var(z, r): one
                for r in rects
                if r.contains(x, y)
                for z in (0, 1)
            }
            rel = "<=" if relaxed else "="
            constraints.append(Constraint(mass, rel, one, f"mass_{x}_{y}"))
    return LinearProgram(
        name="rprt" if relaxed else "prt",
        sense="min",
        variables=tuple(names),
        objective=objective,
        constraints=tuple(constraints),
    )


def build_prt_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _build_partition_lp(f, eps, relaxed=False)


def build_rprt_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _build_partition_lp(f, eps, relaxed=True)


def _build_partition_dual(
    f: TwoPartyFunction, eps: Fraction, relaxed: bool
) -> LinearProgram:
    """Explicit dual program: one (z, R) row per labeled rectangle.

    Equality-primal duals have free phi; the relaxed primal flips the phi
    sign, giving nonnegative phi entering negatively.
    """
    check_unit_interval("eps", eps)
    cells = [(x, y) for x in range(f.nx) for y in range(f.ny)]
    mu_names = tuple(f"mu_{x}_{y}" for x, y in cells)
    phi_names = tuple(f"phi_{x}_{y}" for x, y in cells)
    phi_sign = Fraction(-1) if relaxed else Fraction(1)
    objective: dict[str, Fraction] = {}
    for n in mu_names:
        objective[n] = 1 - eps
    for n in phi_names:
        objective[n] = phi_sign
    constraints: list[Constraint] = []
    one = Fraction(1)
    for r in enumerate_rectangles(f.nx, f.ny):
        for z in (0, 1):
            row: dict[str, Fraction] = {}
            for x, y in cells:
                if r.contains(x, y):
                    row[f"phi_{x}_{y}"] = phi_sign
                    if f.value(x, y) == z:
                        row[f"mu_{x}_{y}"] = one
            constraints.append(Constraint(row, "<=", one, f"dual_{z}_{r.rows:x}_{r.cols:x}"))
    nonneg = {n: True for n in mu_names}
    for n in phi_names:
        nonneg[n] = relaxed  # free phi for the equality primal
    return LinearProgram(
        name=("rprt-dual" if relaxed else "prt-dual"),
        sense="max",
        variables=mu_names + phi_names,
        objective=objective,
        constraints=tuple(constraints),
        nonneg=nonneg,
    )


def build_prt_dual_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _build_partition_dual(f, eps, relaxed=False)


def build_rprt_dual_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _build_partition_dual(f, eps, relaxed=True)


def prt_bound(f: TwoPartyFunction, eps: Fraction) -> BoundResult:
    return _finish("prt", lpmod.solve(build_prt_lp(f, eps)))


def rprt_bound(f: TwoPartyFunction, eps: Fraction) -> BoundResult:
    return _finish("rprt", lpmod.solve(build_rprt_lp(f, eps)))


def partition_weights(result: BoundResult) -> LabeledRectWeights:
    out: LabeledRectWeights = {}
    for v, w in result.solution.primal.items():
        z, rect = _rect_from_var(v)
        assert z is not None
        out[(z, rect)] = w
    return out


def _rect_intersect(a: Rectangle, b: Rectangle) -> Rectangle | None:
    c = a.intersect(b)
    return None if c.is_empty() else c


def correct_mass_at(
    weights: LabeledRectWeights, f: TwoPartyFunction, x: int, y: int
) -> Fraction:
    z = f.value(x, y)
    return sum(
        (w for (wz, r), w in weights.items() if wz == z and r.contains(x, y)),
        Fraction(0),
    )


def total_mass_at(weights: LabeledRectWeights, x: int, y: int) -> Fraction:
    return sum((w for (_, r), w in weights.items() if r.contains(x, y)), Fraction(0))


@dataclass(frozen=True)
class ErrorReduction:
    """Result of the majority-product error reduction of a partition solution.

    ``achieved_error`` is the exact worst-case per-point error of the output:
    max over points of the binomial tail at that point's input correct mass.
    """

    weights: LabeledRectWeights
    votes: int
    achieved_error: Fraction
    objective: Fraction


def reduce_prt_error(
    weights: LabeledRectWeights, f: TwoPartyFunction, t: int
) -> ErrorReduction:
    """t-fold majority product of an exact-total-mass partition solution.

    Preconditions (verified): t odd; per-point total mass is exactly 1.
    Postconditions (verified): the output keeps per-point total mass exactly
    1, its per-point correct mass equals 1 - tail(a_p, t) where a_p is the
    input's correct mass at p, and its objective is at most (input
    objective)**t.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"vote count must be a positive odd integer, got {t}")
    for x in range(f.nx):
        for y in range(f.ny):
            if total_mass_at(weights, x, y) != 1:
                raise InfeasibleConstructionError(
                    f"input is not an exact-mass partition solution at ({x},{y})"
                )
    boosted = majority_product_boost(
        weights, t, _rect_intersect, sort_key=lambda r: (r.rows, r.cols)
    )
    objective = sum(boosted.values(), Fraction(0))
    in_objective = sum(weights.values(), Fraction(0))
    if objective > in_objective**t:
        raise InfeasibleConstructionError("boosted objective exceeds the product bound")
    worst = Fraction(0)
    for x in range(f.nx):
        for y in range(f.ny):
            if total_mass_at(boosted, x, y) != 1:
                raise InfeasibleConstructionError(
                    f"boosted total mass differs from 1 at ({x},{y})"
                )
            a = correct_mass_at(weights, f, x, y)
            expected = 1 - majority_error(a, t)
            got = correct_mass_at(boosted, f, x, y)
            if got != expected:
                raise InfeasibleConstructionError(
                    f"boosted correct mass at ({x},{y}) is {got}, expected {expected}"
                )
            worst = max(worst, 1 - got)
    return ErrorReduction(boosted, t, worst, objective)


@dataclass(frozen=True)
class ChainReport:
    eps: Fraction
    prt: BoundResult
    rprt: BoundResult
    srec0: BoundResult
    srec1: BoundResult

    @property
    def srec_value(self) -> Fraction:
        return max(self.srec0.value, self.srec1.value)

    @property
    def values(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.prt.value, self.rprt.value, self.srec_value)


def check_chain(f: TwoPartyFunction, eps: Fraction) -> ChainReport:
    """Solve prt, rprt and both srec_{eps,eps} LPs; assert prt >= rprt >= srec.

    A violation is fatal: the inequalities hold by weight-map inclusion, so
    failure indicates a solver bug.
    """
    prt = prt_bound(f, eps)
    rprt = rprt_bound(f, eps)
    srec0 = srec_bound(SrecInstance(f, 0, eps, eps))
    srec1 = srec_bound(SrecInstance(f, 1, eps, eps))
    report = ChainReport(eps, prt, rprt, srec0, srec1)
    if not (prt.value >= rprt.value >= report.srec_value):
        raise InfeasibleConstructionError(
            f"bound chain violated: prt={prt.value}, rprt={rprt.value}, "
            f"srec={report.srec_value}"
        )
    return report
