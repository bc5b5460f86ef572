"""Query-side LP bounds over subcubes.

The query partition bound qprt is the labelled partition LP of
``partition`` over the points of {0,1}^n and the subcubes A at cost
2^{|A|}, where |A| is the support size; this module describes that
family, one per bit count.

Error boosting is majority voting over t independent copies; the exact
per-point guarantee is the binomial tail, not a Chernoff estimate.  A
boosted solution splits by label into an inequality system for decision
tree synthesis: the z=0 side becomes the ``u`` family, the z=1 side the
``w`` family, after discarding subcubes with support larger than the
cutoff (Markov: total discarded mass is below gamma because the objective
charges 2^{|A|} per unit weight).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import ceil, floor

from . import lp as lpmod
from .errors import CapExceededError, DimensionMismatchError, InfeasibleConstructionError
from .lp import LinearProgram, LPSolution
from .model import (
    BitProductDistribution,
    Masks,
    QueryFunction,
    Subcube,
    enumerate_subcubes,
    full_cube,
    project_weights,
)
from .partition import LabelledFamily
from .rational import ceil_mul_log2, format_rational, numerators
from .records import Record

QPRT_VARIABLE_CAP = 1 << 20

LabeledCubeWeights = dict[tuple[int, Subcube], Fraction]


def _cube_from_var(name: str) -> tuple[int, Subcube]:
    head, pattern = name.split("_", 1)
    return int(head[1:]), Subcube.from_pattern(pattern)


@cache
def _cube_family(n: int) -> LabelledFamily:
    """The subcubes of {0,1}^n at cost 2^|A|, over its points in increasing order."""
    if 2 * 3**n > QPRT_VARIABLE_CAP:
        raise CapExceededError(f"{2 * 3**n} variables exceed the qprt cap")
    return LabelledFamily(
        tags=tuple(map(str, range(1 << n))),
        members=tuple(enumerate_subcubes(n)),
        cost=lambda cube: Fraction(1 << cube.size),
        tag=Subcube.pattern,
        cells=Subcube.members,
        intersect=Subcube.intersect,
    )


def build_qprt_lp(g: QueryFunction, eps: Fraction) -> LinearProgram:
    return _cube_family(g.n).primal(g.labels, eps, relaxed=False)


class QprtSolution(Record):
    """Labeled subcube weights satisfying exact total mass 1 at every point."""

    n: int
    weights: LabeledCubeWeights


def qprt_bound(g: QueryFunction, eps: Fraction) -> LPSolution:
    return lpmod.solve(build_qprt_lp(g, eps))


def qprt_solution(g: QueryFunction, sol: LPSolution) -> QprtSolution:
    return QprtSolution(g.n, {_cube_from_var(v): w for v, w in sol.primal.items()})


class BoostedQprt(Record):
    """Majority-boosted solution with its exact achieved error level and objective."""

    solution: QprtSolution
    votes: int
    achieved_error: Fraction
    objective: Fraction


def boost_qprt(sol: QprtSolution, g: QueryFunction, t: int) -> BoostedQprt:
    """t-fold majority product of an exact-total-mass qprt solution.

    Every pre- and postcondition is verified by ``LabelledFamily.boost``.
    """
    boosted = _cube_family(g.n).boost(sol.weights, g.labels, t)
    return BoostedQprt(QprtSolution(sol.n, boosted.weights), t, boosted.achieved_error, boosted.objective)


class FeasibleSystem(Record):
    """Two labeled subcube families with margins, for decision tree synthesis.

    The ``u`` family certifies the 0-side pointwise: at least 1 - alpha0 on
    g^-1(0), at most beta0 on g^-1(1).  The ``w`` family is mass-capped at 1
    everywhere and at beta1 on g^-1(0), and must carry at least
    (1 - alpha1) mu_1 of 1-mass against the distribution in use.  Supports
    are bounded by ``a`` (u side) and ``b`` (w side).
    """

    n: int
    u: dict[Subcube, Fraction]
    w: dict[Subcube, Fraction]
    alpha0: Fraction
    beta0: Fraction
    alpha1: Fraction
    beta1: Fraction
    a: int
    b: int

    def verify(self, g: QueryFunction, mu: BitProductDistribution) -> list[str]:
        """All violated inequalities, as messages; [] iff the system verifies.

        Pointwise checks run over the points consistent with the fixed bits
        of ``mu``; fixed bits must not occur in any support.  A family's
        masses are integers over one denominator D, and each margin t is
        rounded to it once: an integer m is below t * D iff it is below
        ceil(t * D), and above it iff above floor(t * D).  The 1-mass that
        w carries is summed over the same points against ``mu``'s integer
        point weights, which are 0 everywhere else.
        """
        ones = mu.label_sums(g, full_cube(self.n))[1]  # first: it checks the bit counts
        out: list[str] = []
        for c, v in list(self.u.items()) + list(self.w.items()):
            if v.numerator < 0:  # an int compare, not a Fraction one
                out.append(f"negative weight on {c.pattern()}")
        for c in self.u:
            if c.size > self.a:
                out.append(f"u support {c.pattern()} exceeds a={self.a}")
        for c in self.w:
            if c.n != self.n:  # the point loop below reads w only on this system's points
                raise DimensionMismatchError(
                    f"bit counts disagree: measure {mu.n}, function {g.n}, subcube {c.n}"
                )
            if c.size > self.b:
                out.append(f"w support {c.pattern()} exceeds b={self.b}")
        consistent = mu.fixed_cube()
        for c in list(self.u) + list(self.w):
            if c.support & consistent.support:
                out.append(f"support {c.pattern()} uses a mu-fixed bit")
        points = list(consistent.members())
        du, um = _masses_at(self.u, points)
        dw, wm = _masses_at(self.w, points)
        low_u, high_u = ceil((1 - self.alpha0) * du), floor(self.beta0 * du)
        high_w = floor(self.beta1 * dw)
        weights = mu.point_weights[1]
        carried = 0  # over dw times mu's denominator, which ``ones`` is over
        for x, a, b in zip(points, um, wm):
            label = g.value(x)
            if label == 0 and a < low_u:
                out.append(f"u covering below 1-alpha0 at {x}")
            if label == 1 and a > high_u:
                out.append(f"u mass above beta0 at {x}")
            if b > dw:
                out.append(f"w mass above 1 at {x}")
            if label == 0 and b > high_w:
                out.append(f"w mass above beta1 at {x}")
            if label == 1:
                carried += weights[x] * b
        if carried < (1 - self.alpha1) * dw * ones:
            out.append("w carries less than (1-alpha1) mu_1 of 1-mass")
        return out


def _masses_at(cubes: dict[Subcube, Fraction], points: list[int]) -> tuple[int, list[int]]:
    """(D, per point D times the total weight of the subcubes containing it).

    D is the weights' common denominator; each cube adds its integer
    numerator at its own points once.
    """
    den, nums = numerators(cubes.values())
    mass: dict[int, int] = {}
    for cube, num in zip(cubes, nums):
        for x in cube.members():
            mass[x] = mass.get(x, 0) + num
    return den, [mass.get(x, 0) for x in points]


def extract_feasible(
    boosted: BoostedQprt,
    gamma: Fraction,
    mu: BitProductDistribution,
) -> FeasibleSystem:
    """Split a boosted solution into a feasible system for ``mu``.

    The support cutoff is d' = ceil(log2 objective) + ceil(log2 1/gamma);
    the discarded mass is verified to be below gamma (each discarded unit
    of weight costs more than objective/gamma in the objective).  Margins
    are alpha0 = beta0 = alpha1 = beta1 = 2*gamma and a = b = d'.  Requires
    the boosted error level to be at most gamma, which must be positive.
    ``qcsynth.build_decision_tree`` verifies the system.
    """
    sol = boosted.solution
    if mu.n != sol.n:  # with the message label_sums gives
        raise DimensionMismatchError(
            f"bit counts disagree: measure {mu.n}, function {sol.n}, subcube {sol.n}"
        )
    if gamma <= 0:
        raise DimensionMismatchError(f"gamma must be positive, got {format_rational(gamma)}")
    if boosted.achieved_error > gamma:
        raise InfeasibleConstructionError(
            f"boosted error {boosted.achieved_error} exceeds gamma {gamma}"
        )
    objective = boosted.objective
    d = ceil_mul_log2(1, objective) if objective > 1 else 0
    dprime = d + ceil_mul_log2(1, 1 / gamma)
    removed = Fraction(0)
    kept: tuple[dict[Masks, Fraction], dict[Masks, Fraction]] = ({}, {})  # by label
    for (z, cube), wv in sol.weights.items():
        if cube.size > dprime:
            removed += wv
        else:
            kept[z][cube.support, cube.values] = wv
    if removed >= gamma:
        raise InfeasibleConstructionError(
            f"discarded mass {removed} is not below gamma {gamma}"
        )
    fixed = mu.fixed_cube()
    region = fixed.support, fixed.values
    u, w = ({Subcube(sol.n, *c): wv for c, wv in project_weights(side, region).items()} for side in kept)
    return FeasibleSystem(
        n=sol.n,
        u=u,
        w=w,
        alpha0=2 * gamma,
        beta0=2 * gamma,
        alpha1=2 * gamma,
        beta1=2 * gamma,
        a=dprime,
        b=dprime,
    )
