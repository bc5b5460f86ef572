"""Communication-side LP bounds over rectangles.

The smooth rectangle programs minimize total rectangle weight subject to
per-point packing/cap constraints:

smooth rectangle, worst case (per output z):
    min sum_R w_R
    sum_{R ni (x,y)} w_R >= 1 - eps          for (x,y) in f^-1(z)   (covering)
    sum_{R ni (x,y)} w_R <= delta            for (x,y) off f^-1(z)  (packing)
    sum_{R ni (x,y)} w_R <= 1                for all (x,y)          (cap)

smooth rectangle, distributional: the per-point covering rows collapse to
the single averaged row
    sum_{(x,y) in f^-1(z)} mu(x,y) * sum_{R ni (x,y)} w_R >= (1-eps) mu_z
while packing and cap stay per-point.

They stay apart from the partition LP: one label, packing and cap rows,
and an averaged distributional row.  The partition bound prt and the
relaxed partition bound rprt are the labelled partition LP of
``partition`` over the cells of X x Y and the nonempty rectangles at cost
1; this module only describes that family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp as lpmod
from .errors import DimensionMismatchError, InfeasibleConstructionError
from .lp import Constraint, LinearProgram, LPSolution
from .model import (
    ProductDistribution2P,
    Rectangle,
    TwoPartyFunction,
    enumerate_rectangles,
    full_rectangle,
)
from .partition import BoostResult, LabelledFamily, check_unit_interval
from .rational import log2_bracket

LabeledRectWeights = dict[tuple[int, Rectangle], Fraction]


def _rect_var(rect: Rectangle) -> str:
    return f"w_{rect.rows:x}_{rect.cols:x}"


def _rect_from_var(name: str) -> tuple[int | None, Rectangle]:
    head, rows, cols = name.split("_")
    z = None if head == "w" else int(head[1:])
    return z, Rectangle(int(rows, 16), int(cols, 16))


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


def finish(kind: str, sol: LPSolution) -> BoundResult:
    """The bound an optimal solution gives, with its log2 bracket."""
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
        mu_z = inst.mu.label_masses(f, full_rectangle(f))[z]
        row = {_rect_var(r): inst.mu.label_masses(f, r)[z] for r in rects}
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
    return finish(kind, lpmod.solve(build_srec_lp(inst)))


def srec_weights(result: BoundResult) -> dict[Rectangle, Fraction]:
    return {_rect_from_var(v)[1]: w for v, w in result.solution.primal.items()}


def _rect_intersect(a: Rectangle, b: Rectangle) -> Rectangle | None:
    c = a.intersect(b)
    return None if c.is_empty() else c


def _rect_family(f: TwoPartyFunction) -> LabelledFamily:
    return LabelledFamily(
        points=tuple(
            ((x, y), f.value(x, y), f"{x}_{y}") for x in range(f.nx) for y in range(f.ny)
        ),
        members=lambda: enumerate_rectangles(f.nx, f.ny),
        cost=lambda r: Fraction(1),
        tag=lambda r: f"{r.rows:x}_{r.cols:x}",
        contains=lambda r, p: r.contains(*p),
        intersect=_rect_intersect,
        sort_key=lambda r: (r.rows, r.cols),
    )


def build_prt_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _rect_family(f).primal("prt", eps, relaxed=False)


def build_rprt_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _rect_family(f).primal("rprt", eps, relaxed=True)


def prt_bound(f: TwoPartyFunction, eps: Fraction) -> BoundResult:
    return finish("prt", lpmod.solve(build_prt_lp(f, eps)))


def rprt_bound(f: TwoPartyFunction, eps: Fraction) -> BoundResult:
    return finish("rprt", lpmod.solve(build_rprt_lp(f, eps)))


def partition_weights(result: BoundResult) -> LabeledRectWeights:
    out: LabeledRectWeights = {}
    for v, w in result.solution.primal.items():
        z, rect = _rect_from_var(v)
        assert z is not None
        out[(z, rect)] = w
    return out


def reduce_prt_error(
    weights: LabeledRectWeights, f: TwoPartyFunction, t: int
) -> BoostResult:
    """t-fold majority product of an exact-total-mass partition solution.

    Every pre- and postcondition is verified by ``LabelledFamily.boost``.
    """
    return _rect_family(f).boost(weights, t)


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
