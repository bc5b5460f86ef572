"""Reference solver for differential tests of ``lpbounds.lp``.

This is the two-phase revised simplex over ``fractions.Fraction`` that
``lpbounds.lp`` used before its integer-preserving core: B^-1 is kept as
Fractions, duals are rebuilt every pivot and every column is priced in
Fraction arithmetic.  It takes the same Bland pivots on the unscaled
program, so on every input the two solvers must return byte-identical
``LPSolution``s.  It is slow, uncached and only used by tests.

``Constraint``, ``from_constraints``, ``rational_rows`` and ``objective``
are the rational view of a program: the tests build programs from rational
rows by variable name and read them back that way.  ``lpbounds.lp`` holds
only the integer form.

``check_farkas`` is the Farkas check written out row by row, as
``lpbounds.lp`` had it before it became a check of the zero-objective
dual.  ``check_feasible``,
``check_dual_feasible``, ``objective_value`` and ``dual_objective`` are the
checks summed term by term in Fractions, as ``lpbounds.lp`` had them before
it compared integer rows over common denominators; the two must give equal
values and equal ``Violation`` lists.

``integer_row`` is the row scaling ``lpbounds.lp`` applied to every rational
row in each consumer before programs were held in integer form, and
``srec_parts`` and ``partition_parts`` are the builders' rational rows from
then, with one ``label_masses`` call per rectangle for the averaged srec
covering row.  ``reference_form`` of their rows must equal ``integer_form``
of the program the builders now emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from lpbounds.errors import LpboundsError
from lpbounds.lp import EQ, GE, LE, MAX_PIVOTS, LinearProgram, LPSolution, Row, Violation, scaled_row
from lpbounds.model import enumerate_rectangles, full_rectangle


@dataclass(frozen=True)
class Constraint:
    """A row in rational form, by variable name."""

    coeffs: dict[str, Fraction]
    rel: str
    rhs: Fraction
    label: str = ""


def from_constraints(
    name: str,
    variables: tuple[str, ...],
    objective: dict[str, Fraction],
    constraints: tuple[Constraint, ...],
) -> LinearProgram:
    """The program of rational rows; a coefficient of an undeclared name is an error."""
    index = {v: j for j, v in enumerate(variables)}

    def scale(con: Constraint, what: str) -> Row:
        undeclared = [v for v in con.coeffs if v not in index]
        if undeclared:
            raise LpboundsError(f"{what} references undeclared variable {undeclared[0]!r}")
        entries = sorted((index[v], Fraction(c)) for v, c in con.coeffs.items() if c)
        rhs = Fraction(con.rhs)
        den = lcm(rhs.denominator, *(c.denominator for _, c in entries))
        nums = [c.numerator * (den // c.denominator) for _, c in entries]
        rhs_num = rhs.numerator * (den // rhs.denominator)
        return scaled_row([j for j, _ in entries], nums, den, con.rel, rhs_num, con.label)

    return LinearProgram(
        name,
        variables,
        scale(Constraint(objective, EQ, Fraction(0), "objective"), "objective"),
        tuple(scale(c, f"constraint {c.label!r}") for c in constraints),
    )


def _rational(lp: LinearProgram, row: Row) -> Constraint:
    names = lp.variables
    return Constraint({names[j]: Fraction(a, row.s) for j, a in zip(row.cols, row.coeffs)},
                      row.rel, Fraction(row.rhs, row.s), row.label)


def rational_rows(lp: LinearProgram) -> list[Constraint]:
    """``lp``'s rows in rational form."""
    return [_rational(lp, r) for r in lp.rows]


def objective(lp: LinearProgram) -> dict[str, Fraction]:
    """``lp``'s objective in rational form."""
    return _rational(lp, lp.cost).coeffs


class _Simplex:
    """Standard-form state for one solve; single-threaded, used once."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        m = len(lp.rows)
        self.m = m
        self.flip: list[int] = []
        rows: list[tuple[dict[str, Fraction], str, Fraction]] = []
        for con in rational_rows(lp):
            coeffs, rel, rhs = con.coeffs, con.rel, con.rhs
            if rhs < 0:
                coeffs = {v: -c for v, c in coeffs.items()}
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
                self.flip.append(-1)
            else:
                self.flip.append(1)
            rows.append((coeffs, rel, rhs))
        self.b = [r[2] for r in rows]

        # columns: one per variable, then slacks, then artificials
        self.cols: list[list[tuple[int, Fraction]]] = []
        self.cost2: list[Fraction] = []  # phase-2 costs
        cost = objective(lp)
        for v in lp.variables:
            self.cols.append([(i, coeffs[v]) for i, (coeffs, _, _) in enumerate(rows) if v in coeffs])
            self.cost2.append(cost.get(v, Fraction(0)))

        zero, one = Fraction(0), Fraction(1)
        self.basis: list[int] = [-1] * m
        self.artificial_start = None
        for i, (_, rel, _) in enumerate(rows):
            if rel == LE:
                j = len(self.cols)
                self.cols.append([(i, one)])
                self.cost2.append(zero)
                self.basis[i] = j
            elif rel == GE:
                j = len(self.cols)
                self.cols.append([(i, -one)])
                self.cost2.append(zero)
        self.n_structural = len(self.cols)
        self.cost1 = [zero] * self.n_structural
        for i in range(m):
            if self.basis[i] == -1:
                j = len(self.cols)
                self.cols.append([(i, one)])
                self.cost2.append(zero)
                self.cost1.append(one)
                self.basis[i] = j
        self.n_total = len(self.cols)

        self.binv: list[list[Fraction]] = [
            [one if i == k else zero for k in range(m)] for i in range(m)
        ]
        self.x_b: list[Fraction] = list(self.b)
        self.iterations = 0

    def _drive_out_artificials(self) -> None:
        """Pivot zero-level artificials out of the basis where possible.

        Rows whose artificial cannot be replaced are linearly dependent on
        the rest; their basic value can never move, so leaving the
        artificial in place is safe.  Without this step a later pivot could
        push a basic artificial positive and silently break feasibility.
        """
        in_basis = set(self.basis)
        for i in range(self.m):
            if self.basis[i] < self.n_structural:
                continue
            row_i = self.binv[i]
            for j in range(self.n_structural):
                if j in in_basis:
                    continue
                u_i = Fraction(0)
                for r, v in self.cols[j]:
                    if row_i[r] != 0:
                        u_i += row_i[r] * v
                if u_i == 0:
                    continue
                u = [Fraction(0)] * self.m
                for r, v in self.cols[j]:
                    for k in range(self.m):
                        bk = self.binv[k][r]
                        if bk != 0:
                            u[k] += bk * v
                row = [a / u_i for a in row_i]
                self.binv[i] = row
                self.x_b[i] /= u_i  # zero stays zero
                for k in range(self.m):
                    if k == i or u[k] == 0:
                        continue
                    f = u[k]
                    rk = self.binv[k]
                    self.binv[k] = [a - f * c for a, c in zip(rk, row)]
                    self.x_b[k] -= f * self.x_b[i]
                in_basis.discard(self.basis[i])
                in_basis.add(j)
                self.basis[i] = j
                break

    def _duals(self, cost: list[Fraction]) -> list[Fraction]:
        m = self.m
        zero = Fraction(0)
        y = [zero] * m
        for k in range(m):
            ck = cost[self.basis[k]]
            if ck == 0:
                continue
            row = self.binv[k]
            for i in range(m):
                if row[i] != 0:
                    y[i] += ck * row[i]
        return y

    def _iterate(self, cost: list[Fraction], limit: int) -> str:
        """Run simplex to optimality; returns "optimal" or "unbounded"."""
        zero = Fraction(0)
        in_basis = set(self.basis)
        while True:
            self.iterations += 1
            if self.iterations > MAX_PIVOTS:
                raise LpboundsError("pivot cap exceeded; possible solver bug")
            y = self._duals(cost)
            enter = -1
            for j in range(limit):
                if j in in_basis:
                    continue
                d = cost[j]
                for r, v in self.cols[j]:
                    yr = y[r]
                    if yr != 0:
                        d -= yr * v
                if d < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            # direction u = B^-1 A_enter
            u = [zero] * self.m
            for r, v in self.cols[enter]:
                for i in range(self.m):
                    bi = self.binv[i][r]
                    if bi != 0:
                        u[i] += bi * v
            leave = -1
            best: Fraction | None = None
            for i in range(self.m):
                if u[i] > 0:
                    ratio = self.x_b[i] / u[i]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                self._unbounded_enter = enter
                self._unbounded_direction = u
                return "unbounded"
            piv = u[leave]
            row = self.binv[leave]
            if piv != 1:
                self.binv[leave] = row = [a / piv for a in row]
                self.x_b[leave] /= piv
            xl = self.x_b[leave]
            for i in range(self.m):
                if i == leave:
                    continue
                f = u[i]
                if f == 0:
                    continue
                ri = self.binv[i]
                self.binv[i] = [a - f * c for a, c in zip(ri, row)]
                self.x_b[i] -= f * xl
            in_basis.discard(self.basis[leave])
            in_basis.add(enter)
            self.basis[leave] = enter


def reference_solve(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` with the Fraction simplex; same record as ``lpbounds.lp.solve``."""
    sx = _Simplex(lp)
    phase1_iterations = 0
    if any(c != 0 for c in sx.cost1):
        status = sx._iterate(sx.cost1, sx.n_total)
        phase1_iterations = sx.iterations
        if status != "optimal":
            raise LpboundsError("phase-1 objective is bounded; solver bug")
        infeas = sum(
            (sx.x_b[i] for i in range(sx.m) if sx.basis[i] >= sx.n_structural),
            Fraction(0),
        )
        if infeas > 0:
            y = sx._duals(sx.cost1)
            vector = {i: sx.flip[i] * y[i] for i in range(sx.m) if y[i] != 0}
            return LPSolution(
                "infeasible", None, {}, (), sx.iterations, phase1_iterations,
                {"kind": "farkas", "vector": vector},
            )
        sx._drive_out_artificials()

    status = sx._iterate(sx.cost2, sx.n_structural)
    if status == "unbounded":
        u = sx._unbounded_direction
        ray_std: dict[int, Fraction] = {sx._unbounded_enter: Fraction(1)}
        for i in range(sx.m):
            if u[i] != 0:
                ray_std[sx.basis[i]] = ray_std.get(sx.basis[i], Fraction(0)) - u[i]
        return LPSolution(
            "unbounded", None, {}, (), sx.iterations, phase1_iterations,
            {"kind": "ray", "vector": _project(sx, ray_std)},
        )

    x_std = {sx.basis[i]: sx.x_b[i] for i in range(sx.m) if sx.x_b[i] != 0}
    primal = _project(sx, x_std)
    y_std = sx._duals(sx.cost2)
    dual = tuple(sx.flip[i] * y_std[i] for i in range(sx.m))
    return LPSolution(
        "optimal", objective_value(lp, primal), primal, dual, sx.iterations, phase1_iterations
    )


def _project(sx: _Simplex, std: dict[int, Fraction]) -> dict[str, Fraction]:
    """Standard-form values of the variables' columns, zeros dropped."""
    return {v: std[j] for j, v in enumerate(sx.lp.variables) if std.get(j, 0) != 0}


def check_farkas(lp: LinearProgram, vector: dict[int, Fraction]) -> bool:
    """True iff ``vector`` certifies infeasibility of ``lp``'s constraints."""
    rows = rational_rows(lp)
    y = [vector.get(i, Fraction(0)) for i in range(len(rows))]
    for i, con in enumerate(rows):
        if con.rel == GE and y[i] < 0:
            return False
        if con.rel == LE and y[i] > 0:
            return False
    col_sums: dict[str, Fraction] = {v: Fraction(0) for v in lp.variables}
    for i, con in enumerate(rows):
        if y[i] == 0:
            continue
        for v, c in con.coeffs.items():
            col_sums[v] += y[i] * c
    if any(col_sums[v] > 0 for v in lp.variables):
        return False
    return sum((y[i] * con.rhs for i, con in enumerate(rows)), Fraction(0)) > 0


def objective_value(lp: LinearProgram, assignment: dict[str, Fraction]) -> Fraction:
    return sum(
        (c * assignment.get(v, Fraction(0)) for v, c in objective(lp).items()),
        Fraction(0),
    )


def check_feasible(lp: LinearProgram, assignment: dict[str, Fraction]) -> list[Violation]:
    """every violated constraint with its exact slack; [] iff feasible.

    Variables missing from the assignment are treated as 0.
    """
    out: list[Violation] = []
    for i, con in enumerate(rational_rows(lp)):
        lhs = sum(
            (c * assignment.get(v, Fraction(0)) for v, c in con.coeffs.items()),
            Fraction(0),
        )
        ok = (
            lhs <= con.rhs
            if con.rel == LE
            else lhs >= con.rhs
            if con.rel == GE
            else lhs == con.rhs
        )
        if not ok:
            out.append(Violation("constraint", i, con.label, lhs, con.rel, con.rhs))
    for j, v in enumerate(lp.variables):
        val = assignment.get(v, Fraction(0))
        if val < 0:
            out.append(Violation("domain", j, v, val, GE, Fraction(0)))
    return out


def check_dual_feasible(
    lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]
) -> list[Violation]:
    """Violations of the derived dual program for ``dual``; [] iff dual-feasible."""
    rows = rational_rows(lp)
    if len(dual) != len(rows):
        raise LpboundsError("dual vector length does not match constraint count")
    out: list[Violation] = []
    for i, con in enumerate(rows):
        y = dual[i]
        if con.rel == GE and y < 0:
            out.append(Violation("dual-sign", i, con.label, y, GE, Fraction(0)))
        if con.rel == LE and y > 0:
            out.append(Violation("dual-sign", i, con.label, y, LE, Fraction(0)))
    col_sums: dict[str, Fraction] = {v: Fraction(0) for v in lp.variables}
    for i, con in enumerate(rows):
        y = dual[i]
        if y == 0:
            continue
        for v, c in con.coeffs.items():
            col_sums[v] += y * c
    cost = objective(lp)
    for j, v in enumerate(lp.variables):
        s = col_sums[v]
        c = cost.get(v, Fraction(0))
        if s > c:
            out.append(Violation("dual-column", j, v, s, LE, c))
    return out


def dual_objective(lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]) -> Fraction:
    return sum((y * con.rhs for y, con in zip(dual, rational_rows(lp))), Fraction(0))


def integer_row(con: Constraint) -> tuple[int, dict[str, int], int]:
    """``(s, s * coeffs, s * rhs)``, s > 0 the lcm of the row's denominators.

    Zero coefficients are dropped first and every number is read as a
    Fraction, as ``Constraint`` cleaned its rows.
    """
    coeffs = {v: Fraction(c) for v, c in con.coeffs.items() if c != 0}
    rhs = Fraction(con.rhs)
    s = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    row = {v: c.numerator * (s // c.denominator) for v, c in coeffs.items()}
    return s, row, rhs.numerator * (s // rhs.denominator)


def reference_form(variables, cost: dict, constraints) -> list:
    """(variables, then (s, coeffs by name, rhs, rel, label) for the objective and each row)."""
    rows = [Constraint(cost, EQ, Fraction(0), "objective"), *constraints]
    return [tuple(variables)] + [(*integer_row(c), c.rel, c.label) for c in rows]


def integer_form(lp: LinearProgram) -> list:
    """``reference_form``'s layout, read from ``lp``'s integer rows."""

    def form(row: Row) -> tuple:
        coeffs = {lp.variables[j]: a for j, a in zip(row.cols, row.coeffs)}
        return row.s, coeffs, row.rhs, row.rel, row.label

    return [lp.variables] + [form(r) for r in (lp.cost, *lp.rows)]


def srec_parts(inst) -> tuple[tuple[str, ...], dict[str, Fraction], list[Constraint]]:
    """The variables, objective and rows of the smooth rectangle LP, built in Fractions."""
    f, z = inst.f, inst.z
    rects = list(enumerate_rectangles(f.nx, f.ny))
    names = tuple(f"w_{r.rows:x}_{r.cols:x}" for r in rects)
    one = Fraction(1)
    containing = {
        (x, y): {name: one for name, r in zip(names, rects) if r.contains(x, y)}
        for x in range(f.nx)
        for y in range(f.ny)
    }
    constraints: list[Constraint] = []
    if inst.mu is None:
        for (x, y), row in containing.items():
            if f.value(x, y) == z:
                constraints.append(Constraint(row, ">=", 1 - inst.eps, f"cov_{x}_{y}"))
    else:
        mu_z = inst.mu.label_masses(f, full_rectangle(f))[z]
        row = {name: inst.mu.label_masses(f, r)[z] for name, r in zip(names, rects)}
        constraints.append(Constraint(row, ">=", (1 - inst.eps) * mu_z, "cov"))
    for (x, y), row in containing.items():
        if f.value(x, y) != z:
            constraints.append(Constraint(row, "<=", inst.delta, f"pack_{x}_{y}"))
    for (x, y), row in containing.items():
        constraints.append(Constraint(row, "<=", one, f"cap_{x}_{y}"))
    return names, {name: one for name in names}, constraints


def partition_parts(family, eps: Fraction, relaxed: bool):
    """The variables, objective and rows of ``family``'s partition LP, built in Fractions."""
    members = list(family.members())
    names = [(f"w0_{family.tag(k)}", f"w1_{family.tag(k)}") for k in members]
    cost = {v: family.cost(k) for k, pair in zip(members, names) for v in pair}
    one = Fraction(1)
    covering: list[Constraint] = []
    mass: list[Constraint] = []
    for p, label, tag in family.points:
        inside = [pair for k, pair in zip(members, names) if family.contains(k, p)]
        covering.append(Constraint({pair[label]: one for pair in inside}, ">=", 1 - eps, f"cov_{tag}"))
        total = {v: one for pair in inside for v in pair}
        mass.append(Constraint(total, "<=" if relaxed else "=", one, f"mass_{tag}"))
    return tuple(v for pair in names for v in pair), cost, covering + mass
