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
while packing and cap stay per-point.  A per-point row depends only on
the shape and its level, so ``_cell_rows`` makes each kind once per level.

They stay apart from the partition LP: one label, packing and cap rows,
and an averaged distributional row.  The partition bound prt and the
relaxed partition bound rprt are the labelled partition LP of
``partition`` over the cells of X x Y and the nonempty rectangles at cost
1; this module describes that family, one per shape, whose layout srec reads too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from operator import add, not_

from . import lp as lpmod
from .errors import DimensionMismatchError, InfeasibleConstructionError
from .lp import LinearProgram, LPSolution, Names, Row, scaled_row, unit_row
from .model import (
    ProductDistribution2P,
    Rectangle,
    TwoPartyFunction,
    enumerate_rectangles,
)
from .partition import BoostResult, LabelledFamily, check_unit_interval
from .records import Record

LabeledRectWeights = dict[tuple[int, Rectangle], Fraction]


def _rect_from_var(name: str) -> Rectangle:
    """The rectangle of ``w_<rows>_<cols>`` or ``w<z>_<rows>_<cols>``."""
    _, rows, cols = name.split("_")
    return Rectangle(int(rows, 16), int(cols, 16))


class SrecInstance(Record):
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
        if self.mu is not None:  # build_srec_lp zips the point weights with f's labels
            self.mu.check_shape(self.f, None)


def _rect_intersect(a: Rectangle, b: Rectangle) -> Rectangle | None:
    c = a.intersect(b)
    return None if c.is_empty() else c


@cache
def _rect_family(nx: int, ny: int) -> LabelledFamily:
    """The nonempty nx x ny rectangles at cost 1, over the cells of X x Y, x-major."""
    # cell (x, y) is x * ny + y: the x * ny of each row mask, the y of each column mask
    starts = [[x * ny for x in range(nx) if (rows >> x) & 1] for rows in range(1 << nx)]
    ys = [[y for y in range(ny) if (cols >> y) & 1] for cols in range(1 << ny)]
    return LabelledFamily(
        tags=tuple(f"{x}_{y}" for x in range(nx) for y in range(ny)),
        members=tuple(enumerate_rectangles(nx, ny)),
        cost=lambda r: 1,
        tag=lambda r: f"{r.rows:x}_{r.cols:x}",
        cells=lambda r: [s + y for s in starts[r.rows] for y in ys[r.cols]],
        intersect=_rect_intersect,
    )


@cache
def _cell_rows(nx: int, ny: int, rel: str, level: Fraction, kind: str) -> tuple[Row, ...]:
    """Per cell, in cell order, the row ``<kind>_<cell>``: its rectangles' weights ``rel`` level."""
    family = _rect_family(nx, ny)
    return tuple(unit_row(cols, rel, level, f"{kind}_{tag}")
                 for tag, cols in zip(family.tags, family.containing))


@cache
def _srec_columns(nx: int, ny: int) -> tuple[Names, Row, tuple[Row, ...]]:
    """``w_<tag>`` per rectangle, the unit cost row and the cap rows, shared by every build."""
    family = _rect_family(nx, ny)
    names = Names(f"w_{family.tag(r)}" for r in family.members)
    return (names, unit_row(range(len(names)), "=", Fraction(0), "objective"),
            _cell_rows(nx, ny, "<=", Fraction(1), "cap"))


def build_srec_lp(inst: SrecInstance) -> LinearProgram:
    """Column j is the weight of the j-th rectangle; rows in the order of the module docstring.

    The worst-case covering rows are the label-z cells' rows of their
    level, the packing rows the other cells'.  The averaged covering row
    depends on mu and f and is built per program: it reads the measure's
    integer ``point_weights``, whose cells are x-major as ``f.labels``, and
    ``_label_z_sums`` gives the label-z weight of every rectangle at once,
    in column order.
    """
    f, z = inst.f, inst.z
    names, cost, caps = _srec_columns(f.nx, f.ny)
    own = [v == z for v in f.labels]
    level = 1 - inst.eps
    if inst.mu is None:
        rows = compress(_cell_rows(f.nx, f.ny, ">=", level, "cov"), own)
    else:
        den, weights = inst.mu.point_weights
        sums, d = _label_z_sums(f, z, weights), level.denominator
        masses = [d * m for by_cols in sums[1:] for m in by_cols[1:]]
        total = sums[-1][-1]  # the label-z weight of the whole table
        rows = [scaled_row(range(len(names)), masses, d * den, ">=", level.numerator * total, "cov")]
    packing = compress(_cell_rows(f.nx, f.ny, "<=", inst.delta, "pack"), map(not_, own))
    return LinearProgram(names, cost, (*rows, *packing, *caps))


def _label_z_sums(f: TwoPartyFunction, z: int, weights: tuple[int, ...]) -> list[list[int]]:
    """sums[rows][cols], the total of ``weights`` over the label-z cells of Rectangle(rows, cols).

    Each table doubles once per row (or column): the masks with its bit set
    are the ones without it, plus that row's sums (or that cell's weight).
    """
    ny = f.ny
    own = [w if v == z else 0 for w, v in zip(weights, f.labels)]
    sums = [[0] * (1 << ny)]
    for x in range(f.nx):
        line = [0]
        for w in own[x * ny:x * ny + ny]:
            line += [s + w for s in line]
        sums += [list(map(add, s, line)) for s in sums]
    return sums


def srec_bound(inst: SrecInstance) -> LPSolution:
    return lpmod.solve(build_srec_lp(inst))


def srec_weights(sol: LPSolution) -> dict[Rectangle, Fraction]:
    return {_rect_from_var(v): w for v, w in sol.primal.items()}


def build_prt_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _rect_family(f.nx, f.ny).primal(f.labels, eps, relaxed=False)


def build_rprt_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _rect_family(f.nx, f.ny).primal(f.labels, eps, relaxed=True)


def prt_bound(f: TwoPartyFunction, eps: Fraction) -> LPSolution:
    return lpmod.solve(build_prt_lp(f, eps))


def rprt_bound(f: TwoPartyFunction, eps: Fraction) -> LPSolution:
    return lpmod.solve(build_rprt_lp(f, eps))


def partition_weights(sol: LPSolution) -> LabeledRectWeights:
    return {(int(v[1]), _rect_from_var(v)): w for v, w in sol.primal.items()}


def reduce_prt_error(
    weights: LabeledRectWeights, f: TwoPartyFunction, t: int
) -> BoostResult:
    """t-fold majority product of an exact-total-mass partition solution.

    Every pre- and postcondition is verified by ``LabelledFamily.boost``.
    """
    return _rect_family(f.nx, f.ny).boost(weights, f.labels, t)


class ChainReport(Record):
    eps: Fraction
    prt: LPSolution
    rprt: LPSolution
    srec0: LPSolution
    srec1: LPSolution

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
