"""Explicit dual programs of prt, rprt and qprt, built independently.

They share no code with ``lpbounds.partition``, which builds the primals,
so solver duals and optima are cross-checked against a program
constructed separately.
"""

from __future__ import annotations

from fractions import Fraction

from lpbounds.lp import Constraint, LinearProgram
from lpbounds.model import QueryFunction, TwoPartyFunction, enumerate_rectangles, enumerate_subcubes
from lpbounds.partition import check_unit_interval


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
    return LinearProgram.from_constraints(
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


def build_qprt_dual_lp(
    g: QueryFunction, eps: Fraction, max_support: int | None = None
) -> LinearProgram:
    check_unit_interval("eps", eps)
    points = range(1 << g.n)
    mu_names = tuple(f"mu_{x}" for x in points)
    phi_names = tuple(f"phi_{x}" for x in points)
    objective: dict[str, Fraction] = {n: 1 - eps for n in mu_names}
    for n in phi_names:
        objective[n] = Fraction(1)
    one = Fraction(1)
    constraints = []
    for cube in enumerate_subcubes(g.n, max_support):
        for z in (0, 1):
            row: dict[str, Fraction] = {}
            for x in cube.members():
                row[f"phi_{x}"] = one
                if g.value(x) == z:
                    row[f"mu_{x}"] = one
            constraints.append(
                Constraint(row, "<=", Fraction(1 << cube.size), f"dual_{z}_{cube.pattern()}")
            )
    nonneg = {n: True for n in mu_names}
    for n in phi_names:
        nonneg[n] = False
    return LinearProgram.from_constraints(
        name="qprt-dual",
        sense="max",
        variables=mu_names + phi_names,
        objective=objective,
        constraints=tuple(constraints),
        nonneg=nonneg,
    )
