"""Explicit dual programs of prt, rprt and qprt, built independently.

They share no code with ``lpbounds.partition``, which builds the primals,
so solver duals and optima are cross-checked against a program
constructed separately.  Each dual maximises over (mu, phi); it is built
as the minimisation of its negated objective over nonnegative columns, so
its optimal value is minus the primal optimum.  A free phi is the
difference of two nonnegative columns, ``phi_<p>`` minus ``nphi_<p>``.
The negated objective has negative costs, which ``lpbounds.lp.solve``
refuses: the tests check these programs with ``check_feasible`` and
``objective_value`` and solve them with ``reference_lp.reference_solve``.
"""

from __future__ import annotations

from fractions import Fraction

from reference_lp import Constraint, from_constraints

from lpbounds.lp import LinearProgram
from lpbounds.model import QueryFunction, TwoPartyFunction, enumerate_rectangles, enumerate_subcubes
from lpbounds.partition import check_unit_interval


def split_free(point: dict[str, Fraction]) -> dict[str, Fraction]:
    """``point`` on the dual's columns: a negative phi moves to its ``nphi`` column."""
    out = {}
    for v, c in point.items():
        if v.startswith("phi_") and c < 0:
            v, c = "n" + v, -c
        out[v] = c
    return out


def _dual_program(points, rows, eps, relaxed) -> LinearProgram:
    """min -(1 - eps) sum mu - phi_sign sum phi over the columns of ``rows``.

    ``rows`` holds (points of the member, points of it with the label,
    right-hand side, label); each row reads sum mu + phi_sign sum phi <= rhs.
    phi is free with phi_sign = 1, or for a relaxed primal nonnegative with
    phi_sign = -1.
    """
    phi_sign = Fraction(-1 if relaxed else 1)
    mu_names = tuple(f"mu_{p}" for p in points)
    phi_names = tuple(f"phi_{p}" for p in points)
    nphi_names = () if relaxed else tuple(f"nphi_{p}" for p in points)
    objective = {n: eps - 1 for n in mu_names}
    objective.update({n: -phi_sign for n in phi_names})
    objective.update({n: phi_sign for n in nphi_names})
    constraints = []
    for inside, labelled, rhs, label in rows:
        row = {f"mu_{p}": Fraction(1) for p in labelled}
        row.update({f"phi_{p}": phi_sign for p in inside})
        if not relaxed:
            row.update({f"nphi_{p}": -phi_sign for p in inside})
        constraints.append(Constraint(row, "<=", rhs, label))
    return from_constraints(mu_names + phi_names + nphi_names, objective, tuple(constraints))


def _build_partition_dual(
    f: TwoPartyFunction, eps: Fraction, relaxed: bool
) -> LinearProgram:
    """Explicit dual program: one (z, R) row per labeled rectangle.

    Equality-primal duals have free phi; the relaxed primal flips the phi
    sign, giving nonnegative phi entering negatively.
    """
    check_unit_interval("eps", eps)
    cells = [(x, y) for x in range(f.nx) for y in range(f.ny)]
    rows = []
    for r in enumerate_rectangles(f.nx, f.ny):
        inside = [(x, y) for x, y in cells if r.contains(x, y)]
        for z in (0, 1):
            labelled = [(x, y) for x, y in inside if f.value(x, y) == z]
            rows.append(([f"{x}_{y}" for x, y in inside], [f"{x}_{y}" for x, y in labelled],
                         Fraction(1), f"dual_{z}_{r.rows:x}_{r.cols:x}"))
    return _dual_program([f"{x}_{y}" for x, y in cells], rows, eps, relaxed)


def build_prt_dual_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _build_partition_dual(f, eps, relaxed=False)


def build_rprt_dual_lp(f: TwoPartyFunction, eps: Fraction) -> LinearProgram:
    return _build_partition_dual(f, eps, relaxed=True)


def build_qprt_dual_lp(g: QueryFunction, eps: Fraction) -> LinearProgram:
    check_unit_interval("eps", eps)
    rows = []
    for cube in enumerate_subcubes(g.n):
        inside = list(cube.members())
        for z in (0, 1):
            labelled = [x for x in inside if g.value(x) == z]
            rows.append((inside, labelled, Fraction(1 << cube.size), f"dual_{z}_{cube.pattern()}"))
    return _dual_program(range(1 << g.n), rows, eps, relaxed=False)
