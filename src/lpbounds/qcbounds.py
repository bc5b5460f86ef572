"""Query-side LP bounds over subcubes.

The query partition bound qprt is the labelled partition LP of
``partition`` over the points of {0,1}^n and the subcubes A at cost
2^{|A|}, where |A| is the support size; this module only describes that
family.

Error boosting is majority voting over t independent copies; the exact
per-point guarantee is the binomial tail, not a Chernoff estimate.  A
boosted solution splits by label into an inequality system for decision
tree synthesis: the z=0 side becomes the ``u`` family, the z=1 side the
``w`` family, after discarding subcubes with support larger than the
cutoff (Markov: total discarded mass is below gamma because the objective
charges 2^{|A|} per unit weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp as lpmod
from .ccbounds import BoundResult, finish
from .errors import CapExceededError, InfeasibleConstructionError
from .lp import LinearProgram
from .model import (
    BitProductDistribution,
    QueryFunction,
    Subcube,
    cube_key,
    enumerate_subcubes,
    full_cube,
    project_weights,
)
from .partition import LabelledFamily
from .rational import ceil_mul_log2

QPRT_VARIABLE_CAP = 1 << 20

LabeledCubeWeights = dict[tuple[int, Subcube], Fraction]


def _cube_from_var(name: str) -> tuple[int, Subcube]:
    head, pattern = name.split("_", 1)
    return int(head[1:]), Subcube.from_pattern(pattern)


def _cube_family(g: QueryFunction) -> LabelledFamily:
    def members() -> list[Subcube]:
        cubes = list(enumerate_subcubes(g.n))
        if 2 * len(cubes) > QPRT_VARIABLE_CAP:
            raise CapExceededError(f"{2 * len(cubes)} variables exceed the qprt cap")
        return cubes

    return LabelledFamily(
        points=tuple((x, g.value(x), str(x)) for x in range(1 << g.n)),
        members=members,
        cost=lambda cube: Fraction(1 << cube.size),
        tag=Subcube.pattern,
        contains=Subcube.contains,
        intersect=Subcube.intersect,
        sort_key=cube_key,
    )


def build_qprt_lp(g: QueryFunction, eps: Fraction) -> LinearProgram:
    return _cube_family(g).primal("qprt", eps, relaxed=False)


@dataclass(frozen=True)
class QprtSolution:
    """Labeled subcube weights satisfying exact total mass 1 at every point."""

    n: int
    weights: LabeledCubeWeights

    @property
    def objective(self) -> Fraction:
        return sum(
            (w * (1 << cube.size) for (_, cube), w in self.weights.items()),
            Fraction(0),
        )


def qprt_bound(g: QueryFunction, eps: Fraction) -> BoundResult:
    return finish("qprt", lpmod.solve(build_qprt_lp(g, eps)))


def qprt_solution(g: QueryFunction, result: BoundResult) -> QprtSolution:
    weights: LabeledCubeWeights = {}
    for name, w in result.solution.primal.items():
        z, cube = _cube_from_var(name)
        weights[(z, cube)] = w
    return QprtSolution(g.n, weights)


@dataclass(frozen=True)
class BoostedQprt:
    """Majority-boosted solution with its exact achieved error level."""

    solution: QprtSolution
    votes: int
    achieved_error: Fraction


def boost_qprt(sol: QprtSolution, g: QueryFunction, t: int) -> BoostedQprt:
    """t-fold majority product of an exact-total-mass qprt solution.

    Every pre- and postcondition is verified by ``LabelledFamily.boost``.
    """
    boosted = _cube_family(g).boost(sol.weights, t)
    return BoostedQprt(QprtSolution(sol.n, boosted.weights), t, boosted.achieved_error)


@dataclass(frozen=True)
class FeasibleSystem:
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
        of ``mu``; fixed bits must not occur in any support.
        """
        mu1 = mu.label_masses(g, full_cube(self.n))[1]  # first: it checks the bit counts
        out: list[str] = []
        for c, v in list(self.u.items()) + list(self.w.items()):
            if v < 0:
                out.append(f"negative weight on {c.pattern()}")
        for c in self.u:
            if c.size > self.a:
                out.append(f"u support {c.pattern()} exceeds a={self.a}")
        for c in self.w:
            if c.size > self.b:
                out.append(f"w support {c.pattern()} exceeds b={self.b}")
        consistent = mu.fixed_cube()
        for c in list(self.u) + list(self.w):
            if c.support & consistent.support:
                out.append(f"support {c.pattern()} uses a mu-fixed bit")
        for x in consistent.members():
            um = _mass_at(self.u, x)
            if g.value(x) == 0 and um < 1 - self.alpha0:
                out.append(f"u covering below 1-alpha0 at {x}")
            if g.value(x) == 1 and um > self.beta0:
                out.append(f"u mass above beta0 at {x}")
            wm = _mass_at(self.w, x)
            if wm > 1:
                out.append(f"w mass above 1 at {x}")
            if g.value(x) == 0 and wm > self.beta1:
                out.append(f"w mass above beta1 at {x}")
        carried = sum(
            (v * mu.label_masses(g, c)[1] for c, v in self.w.items()),
            Fraction(0),
        )
        if carried < (1 - self.alpha1) * mu1:
            out.append("w carries less than (1-alpha1) mu_1 of 1-mass")
        return out


def _mass_at(cubes: dict[Subcube, Fraction], x: int) -> Fraction:
    """Total weight of the subcubes containing the point x."""
    return sum((v for c, v in cubes.items() if c.contains(x)), Fraction(0))


def extract_feasible(
    boosted: BoostedQprt,
    gamma: Fraction,
    g: QueryFunction,
    mu: BitProductDistribution,
) -> FeasibleSystem:
    """Split a boosted solution into a verified feasible system.

    The support cutoff is d' = ceil(log2 objective) + ceil(log2 1/gamma);
    the discarded mass is verified to be below gamma (each discarded unit
    of weight costs more than objective/gamma in the objective).  Margins
    are alpha0 = beta0 = alpha1 = beta1 = 2*gamma and a = b = d'.  Requires
    the boosted error level to be at most gamma.
    """
    if boosted.achieved_error > gamma:
        raise InfeasibleConstructionError(
            f"boosted error {boosted.achieved_error} exceeds gamma {gamma}"
        )
    sol = boosted.solution
    objective = sol.objective
    d = ceil_mul_log2(1, objective) if objective > 1 else 0
    dprime = d + ceil_mul_log2(1, 1 / gamma)
    removed = Fraction(0)
    kept: LabeledCubeWeights = {}
    for (z, cube), wv in sol.weights.items():
        if cube.size > dprime:
            removed += wv
        else:
            kept[(z, cube)] = wv
    if removed >= gamma:
        raise InfeasibleConstructionError(
            f"discarded mass {removed} is not below gamma {gamma}"
        )
    fixed = mu.fixed_cube()
    u = project_weights({cube: wv for (z, cube), wv in kept.items() if z == 0}, fixed)
    w = project_weights({cube: wv for (z, cube), wv in kept.items() if z == 1}, fixed)
    system = FeasibleSystem(
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
    problems = system.verify(g, mu)
    if problems:
        raise InfeasibleConstructionError(
            f"extracted system failed verification: {problems[0]}"
        )
    return system
