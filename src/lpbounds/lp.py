"""Exact rational linear programming with certified primal/dual solutions.

Every program has one shape: minimise cost . x subject to its rows, with
x >= 0 and cost >= 0.  Each bound LP (srec, prt, rprt, qprt) minimises
total weight over nonnegative weights, so the solver, the checkers and the
cache key handle no other sense and no free variable.  No optimum is
below 0, so every program is optimal or infeasible.  ``solve`` refuses a
negative cost coefficient; the checkers take any program.

The solver is a two-phase revised simplex with Bland's pivoting rule:
entering variable is the lowest-index column with a negative reduced cost,
leaving row breaks ratio ties by lowest basic column index.  Bland's rule
guarantees termination and makes every solve deterministic: the same
program always produces the same pivot sequence, hence byte-identical
solutions.

The core is integer-preserving (Edmonds 1967; Bareiss 1968); no gcd is
taken while pivoting.  Each row, sign-flipped to a nonnegative right-hand
side, is multiplied by the lcm ``sigma_i`` of its coefficient denominators
only: the integer row of scale s_i is divided by g_i = gcd(s_i, *coeffs),
so sigma_i = s_i / g_i.  A covering row sum w >= 7/8 keeps its unit
coefficients and adds no factor 8 to det B.  The right-hand sides
rhs_i / g_i that are left share one common denominator L_b, the lcm of
g_i / gcd(g_i, rhs_i), which the simplex carries as a factor of x.  Slack,
surplus and artificial columns keep the entry +-1 in the scaled row, so
each stands for its original variable times ``sigma_i``; the artificial of
row i costs ``1/sigma_i`` so that the phase-1 objective is unchanged.
Positive row and column scaling, and one positive factor on all of b,
leave every reduced-cost sign and the order of the ratio-test values as
they were, so Bland's rule takes the pivots it would take on the unscaled
program.  The state is integer throughout:

  B^-1 = N / D for the scaled basis B, with N integer and D = |det B| > 0;
  D * L_b * x_B and L * D * y are integers (L = lcm of the phase's cost
  denominators), as is L * D times every reduced cost.

A pivot on row l for the entering column a_e, with u = N a_e and p = u_l,
replaces every other row i of N and x by (p * row_i - u_i * row_l) / D and
sets D = p.  By Sylvester's identity each of these divisions is exact, so
``//`` never rounds; were one wrong it would floor silently, which is why
every result is certified before it is returned.  N is scaled lazily:
row i is stored as n[i] with the determinant dd[i] at which it was last
written, and reads as n[i] * D // dd[i].  A row with u_i = 0 would only be
rescaled by p / D, so the pivot leaves it alone and the new D implies the
factor; the division is exact because n[i] * D / dd[i] is the row N holds,
an integer by the same identity.  A pivot writes row l (dd = p) and the
rows with u_i != 0, which it first rescales to D; when p = D it changes
only their entries where row l is nonzero.  ``_column`` rescales each
row's dot product once, and the duals, their update and the drive-out
read rescaled rows.  x is never stale: each pivot rewrites every entry
that changes.  Only when artificials are driven out after phase 1 can p
be negative; every row is then rescaled, and N, x and D are negated.  The
integer duals Y = L * D * y are built once per phase and then updated in
O(m) per pivot, Y' = (p * Y + d_e * N_l) / D, where d_e is L * D times the
reduced cost of the entering column.  Fractions are made only at
the boundary: basic values X_i / (D * L_b), duals and the Farkas vector.

Every solve is certified before it is returned (``certify``): an optimal
primal point is checked against all constraints, the dual vector against
the derived dual program, and the two objective values are compared as
exact rationals.  Infeasible programs come with a Farkas certificate,
checked by ``check_farkas``.  Cached solutions pass the same ``certify``
on load.  The checks
are fraction-free too: they read the same integer rows as the simplex,
scale a point by the lcm of its denominators, and a dual y_i / s_i and
the costs by one common denominator, so every comparison and every
objective value is an integer sum.  A Fraction is built only for the lhs
of a violation and for a returned objective value.

A program has one form, built once: each row is held as its scale s_i,
its column indices in increasing order, the integer coefficients s_i * a_ij,
the integer rhs s_i * b_i and its relation, with s_i the lcm of the row's
denominators.  The objective is held the same way.  ``scaled_row`` is the
one place rows are scaled; the builders emit rows through it, and the
simplex, the checkers and the cache key all read them.  Variable names
serve the records only.

Dual conventions:
  row ``>=``  ->  y_i >= 0;   row ``<=``  ->  y_i <= 0;   row ``=`` -> free
  every column j:  sum_i y_i a_ij <= c_j
  optimal dual objective:  sum_i y_i b_i  ==  primal optimum
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import uuid
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import lt, mul

from .errors import LpboundsError, ParseError
from .rational import format_rational, parse_rational

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

MAX_PIVOTS = 2_000_000


@dataclass(frozen=True)
class Row:
    """One row in integer form: sum_k coeffs[k] * x[cols[k]]  rel  rhs.

    It is the rational row times s > 0, the lcm of the row's denominators;
    ``cols`` increase and no coefficient is 0; ``scaled_row`` makes it.
    """

    s: int
    cols: tuple[int, ...]
    coeffs: tuple[int, ...]
    rel: str
    rhs: int
    label: str


def scaled_row(cols, nums, den: int, rel: str, rhs: int, label: str) -> Row:
    """The row sum_k (nums[k] / den) x_{cols[k]}  rel  rhs / den in integer form.

    ``cols`` increase and den > 0.  The lcm of the reduced denominators is
    den / g for g = gcd(den, rhs, *nums), so the row is divided by g; zero
    coefficients are dropped.
    """
    if 0 in nums:
        kept = [(j, a) for j, a in zip(cols, nums) if a]
        cols, nums = [j for j, _ in kept], [a for _, a in kept]
    g = gcd(den, rhs, *nums)
    if g > 1:
        nums = [a // g for a in nums]
    return Row(den // g, tuple(cols), tuple(nums), rel, rhs // g, label)


def unit_row(cols, rel: str, level: Fraction, label: str) -> Row:
    """sum_{j in cols} x_j  rel  level."""
    den = level.denominator
    return scaled_row(cols, [den] * len(cols), den, rel, level.numerator, label)


@dataclass(frozen=True)
class LinearProgram:
    """min cost . x subject to ``rows`` and x >= 0, in its one integer form.

    ``cost`` is the objective as a row (its relation and rhs unused) and
    ``rows`` the constraints.  Column j is ``variables[j]``.
    """

    name: str
    variables: tuple[str, ...]
    cost: Row
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise LpboundsError("duplicate variable names")
        for r in (self.cost, *self.rows):
            if r.rel not in _RELS:
                raise LpboundsError(f"unknown relation {r.rel!r}")
            cols = r.cols
            if r.s <= 0 or 0 in r.coeffs or len(cols) != len(r.coeffs):
                raise LpboundsError(
                    f"row {r.label!r} needs a positive scale and one nonzero coefficient per column")
            if cols and not (0 <= cols[0] and cols[-1] < n and all(map(lt, cols, cols[1:]))):
                raise LpboundsError(f"row {r.label!r} has columns out of order or out of range")

    @property
    def constraints(self) -> tuple[Row, ...]:
        """``rows``; kept only because the benchmark harness reads ``len(program.constraints)``."""
        return self.rows

    def objective_value(self, assignment: dict[str, Fraction]) -> Fraction:
        big_l, point = _scaled_point(self, assignment)
        return Fraction(_row_dot(self.cost, point), self.cost.s * big_l)


@dataclass(frozen=True)
class Violation:
    kind: str  # "constraint" | "domain" | "dual-sign" | "dual-column"
    index: int
    label: str
    lhs: Fraction
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None
    primal: dict[str, Fraction]
    dual: tuple[Fraction, ...]
    iterations: int
    phase1_iterations: int
    certificate: dict | None = None

    def to_record(self) -> dict:
        rec = {
            "status": self.status,
            "value": None if self.value is None else format_rational(self.value),
            "primal": {v: format_rational(c) for v, c in sorted(self.primal.items())},
            "dual": [format_rational(y) for y in self.dual],
            "iterations": self.iterations,
            "phase1_iterations": self.phase1_iterations,
        }
        if self.certificate is not None:
            rec["certificate"] = {
                "kind": self.certificate["kind"],
                "vector": {
                    k: format_rational(v)
                    for k, v in sorted(self.certificate["vector"].items())
                },
            }
        return rec

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_record(), sort_keys=True).encode()


def _scaled_point(lp: LinearProgram, assignment: dict[str, Fraction]) -> tuple[int, list[int]]:
    """L, the lcm of the assignment's denominators, and L * x by column.

    Missing variables are 0; names the program does not declare are dropped.
    """
    big_l = lcm(*(x.denominator for x in assignment.values()))
    point = [0] * len(lp.variables)
    index = dict(zip(lp.variables, range(len(lp.variables))))
    for v, x in assignment.items():
        j = index.get(v)
        if j is not None:
            point[j] = x.numerator * (big_l // x.denominator)
    return big_l, point


def _row_dot(row: Row, point: list[int]) -> int:
    return sum(map(mul, row.coeffs, map(point.__getitem__, row.cols)))


def check_feasible(lp: LinearProgram, assignment: dict[str, Fraction]) -> list[Violation]:
    """every violated constraint with its exact slack; [] iff feasible.

    Variables missing from the assignment are treated as 0.  Row i scaled
    by s_i and the assignment by the lcm L of its denominators compare as
    integers; the Fraction lhs is built only for a violated row.
    """
    big_l, point = _scaled_point(lp, assignment)
    out: list[Violation] = []
    for i, row in enumerate(lp.rows):
        lhs, rhs = _row_dot(row, point), row.rhs * big_l
        ok = lhs <= rhs if row.rel == LE else lhs >= rhs if row.rel == GE else lhs == rhs
        if not ok:
            out.append(Violation("constraint", i, row.label, Fraction(lhs, row.s * big_l),
                                 row.rel, Fraction(row.rhs, row.s)))
    for j, v in enumerate(lp.variables):
        if point[j] < 0:
            out.append(Violation("domain", j, v, assignment[v], GE, Fraction(0)))
    return out


def check_dual_feasible(
    lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]
) -> list[Violation]:
    """Violations of the derived dual program for ``dual``; [] iff dual-feasible.

    Column sums are integers over one common denominator M of every
    y_i / s_i and every objective coefficient, as is M * c_j; the Fraction
    sum is built only for a violated column.
    """
    if len(dual) != len(lp.rows):
        raise LpboundsError("dual vector length does not match constraint count")
    out: list[Violation] = []
    for i, (y, row) in enumerate(zip(dual, lp.rows)):
        # >= rows need y >= 0, <= rows need y <= 0
        if row.rel == GE and y < 0:
            out.append(Violation("dual-sign", i, row.label, y, GE, Fraction(0)))
        if row.rel == LE and y > 0:
            out.append(Violation("dual-sign", i, row.label, y, LE, Fraction(0)))
    # y_i * c_ij = (y_i / s_i) * a_ij on the integer row a_i = s_i * c_i
    weights = []
    for y, row in zip(dual, lp.rows):
        if y:
            g = gcd(y.numerator, row.s)
            weights.append((y.numerator // g, y.denominator * (row.s // g), row))
    cost = lp.cost
    big_m = lcm(cost.s, *(den for _, den, _ in weights))
    col_sums = [0] * len(lp.variables)
    for num, den, row in weights:
        w = num * (big_m // den)
        for j, a in zip(row.cols, row.coeffs):
            col_sums[j] += w * a
    costs = [0] * len(lp.variables)
    for j, a in zip(cost.cols, cost.coeffs):
        costs[j] = a
    unit = big_m // cost.s
    for j, v in enumerate(lp.variables):
        if col_sums[j] > costs[j] * unit:
            out.append(Violation("dual-column", j, v, Fraction(col_sums[j], big_m), LE,
                                 Fraction(costs[j], cost.s)))
    return out


def dual_objective(lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]) -> Fraction:
    """sum_i y_i b_i, summed as integers over one denominator."""
    pairs = [(y, row) for y, row in zip(dual, lp.rows) if y and row.rhs]
    big_m = lcm(*(y.denominator * row.s for y, row in pairs))
    return Fraction(sum(y.numerator * row.rhs * (big_m // (y.denominator * row.s))
                        for y, row in pairs), big_m)


def check_farkas(lp: LinearProgram, vector: dict[int, Fraction]) -> bool:
    """True iff ``vector`` certifies infeasibility of ``lp``'s constraints.

    A Farkas vector is a feasible dual of the zero-objective minimization
    with a positive dual objective: no primal point can meet the rows.
    """
    y = [vector.get(i, Fraction(0)) for i in range(len(lp.rows))]
    zero = replace(lp, cost=Row(1, (), (), EQ, 0, "objective"))
    return not check_dual_feasible(zero, y) and dual_objective(lp, y) > 0


def certify(lp: LinearProgram, sol: LPSolution) -> list[str]:
    """Every way ``sol`` fails to certify its status for ``lp``; [] iff it holds.

    An optimal solution needs a feasible primal over declared variables, a
    feasible dual of matching length and equal primal, dual and reported
    values; an infeasible one a Farkas vector.  Any other status is unknown.
    """
    if sol.status == "optimal":
        undeclared = sorted(set(sol.primal) - set(lp.variables))
        if undeclared:
            return [f"primal names undeclared variables {undeclared}"]
        if len(sol.dual) != len(lp.rows):
            return ["dual vector length does not match constraint count"]
        failures = [f"optimal primal failed re-check: {v}" for v in check_feasible(lp, sol.primal)]
        failures += [f"optimal dual failed re-check: {v}" for v in check_dual_feasible(lp, sol.dual)]
        if lp.objective_value(sol.primal) != sol.value:
            failures.append("primal objective differs from the reported value")
        if dual_objective(lp, sol.dual) != sol.value:
            failures.append("strong duality certificate failed")
        return failures
    if sol.status != "infeasible":
        return [f"unknown status {sol.status!r}"]
    cert = sol.certificate
    if cert is None or cert.get("kind") != "farkas" or not check_farkas(lp, cert["vector"]):
        return ["invalid farkas certificate"]
    return []


class _Simplex:
    """Integer standard form and basis state for one solve; used once."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        m = len(lp.rows)
        self.m = m
        # columns: one per variable, then slacks, then artificials
        self.n_real = len(lp.variables)
        self.cols: list[list[tuple[int, int]]] = [[] for _ in range(self.n_real)]

        self.flip: list[int] = []
        self.sigma: list[int] = []  # the lcm of row i's coefficient denominators
        rhs: list[tuple[int, int]] = []  # sign * rhs_i / g_i in lowest terms
        rels: list[str] = []
        for i, row in enumerate(lp.rows):
            sign = -1 if row.rhs < 0 else 1
            g = gcd(row.s, *row.coeffs)
            # columns share one (row, value) pair per distinct coefficient of the
            # row, so a wide program holds few tuples
            entry = {a: (i, sign * a // g) for a in set(row.coeffs)}
            for j, a in zip(row.cols, row.coeffs):
                self.cols[j].append(entry[a])
            self.flip.append(sign)
            self.sigma.append(row.s // g)
            h = gcd(g, row.rhs)
            rhs.append((sign * row.rhs // h, g // h))
            rels.append(row.rel if sign > 0 else {LE: GE, GE: LE, EQ: EQ}[row.rel])
        self.lb = lcm(*(den for _, den in rhs))  # L_b, one common denominator of b
        self.x: list[int] = [num * (self.lb // den) for num, den in rhs]  # D * L_b * x_B

        self.basis: list[int] = [-1] * m
        for i, rel in enumerate(rels):
            if rel == LE:
                self.basis[i] = len(self.cols)
                self.cols.append([(i, 1)])
            elif rel == GE:
                self.cols.append([(i, -1)])
        self.n_structural = len(self.cols)
        artificial_rows = [i for i in range(m) if self.basis[i] == -1]
        for i in artificial_rows:
            self.basis[i] = len(self.cols)
            self.cols.append([(i, 1)])
        self.n_total = len(self.cols)

        # integer costs: L * cost, L the lcm of the phase's denominators
        self.l2 = lp.cost.s
        self.cost2 = [0] * self.n_total
        for j, a in zip(lp.cost.cols, lp.cost.coeffs):
            self.cost2[j] = a
        self.l1 = lcm(*(self.sigma[i] for i in artificial_rows))
        self.cost1 = [0] * self.n_structural + [self.l1 // self.sigma[i] for i in artificial_rows]

        self.n: list[list[int]] = [[int(i == k) for k in range(m)] for i in range(m)]
        self.dd: list[int] = [1] * m  # row i of N is n[i] * d // dd[i]
        self.d = 1
        self.y: list[int] = []  # L * D * duals of the last phase run
        self.iterations = 0

    def _column(self, j: int) -> list[int]:
        """N * a_j, i.e. D times the basic direction of column j."""
        col, d = self.cols[j], self.d
        return [s if e == d else s * d // e
                for s, e in zip([sum(row[r] * v for r, v in col) for row in self.n], self.dd)]

    def _row(self, i: int) -> list[int]:
        """Row i of N, rescaled in place to the current D if it is stale."""
        row, e, d = self.n[i], self.dd[i], self.d
        if e != d:
            row = self.n[i] = [a * d // e for a in row]
            self.dd[i] = d
        return row

    def _duals(self, cost: list[int]) -> list[int]:
        y = [0] * self.m
        for k, j in enumerate(self.basis):
            if cost[j]:
                y = [a + cost[j] * b for a, b in zip(y, self._row(k))]
        return y

    def _pivot(self, l: int, u: list[int]) -> None:
        """Exchange the basic column of row ``l`` for the column with N * a = u."""
        p, d, n, dd, x = u[l], self.d, self.n, self.dd, self.x
        nl, xl = self._row(l), x[l]
        if p == d:
            nonzero = [(k, b) for k, b in enumerate(nl) if b]
        for i, ui in enumerate(u):
            if i == l:
                continue
            if ui:
                row = self._row(i)
                if p == d:  # (p * a - ui * b) / d moves only where b != 0
                    for k, b in nonzero:
                        row[k] -= ui * b // d
                else:
                    n[i] = [(p * a - ui * b) // d for a, b in zip(row, nl)]
                dd[i] = p
                x[i] = (p * x[i] - ui * xl) // d
            elif p != d:
                x[i] = p * x[i] // d
        dd[l] = p
        self.d = p

    def _drive_out_artificials(self) -> None:
        """Pivot zero-level artificials out of the basis where possible.

        Rows whose artificial cannot be replaced are linearly dependent on
        the rest; their basic value can never move, so leaving the
        artificial in place is safe.  Without this step a later pivot could
        push a basic artificial positive and silently break feasibility.
        The pivot element may be negative here; N, x and D are then negated
        to keep D > 0.
        """
        in_basis = set(self.basis)
        for i in range(self.m):
            if self.basis[i] < self.n_structural:
                continue
            row_i = self._row(i)
            for j in range(self.n_structural):
                if j in in_basis or sum(row_i[r] * v for r, v in self.cols[j]) == 0:
                    continue
                self._pivot(i, self._column(j))
                if self.d < 0:
                    self.n[:] = [[-a for a in self._row(k)] for k in range(self.m)]
                    self.d = -self.d
                    self.dd[:] = [self.d] * self.m
                    self.x[:] = [-a for a in self.x]
                in_basis.discard(self.basis[i])
                in_basis.add(j)
                self.basis[i] = j
                break

    def _iterate(self, cost: list[int], limit: int) -> None:
        """Run simplex to optimality.

        Both phases minimise a cost >= 0 (phase 1 the artificials, phase 2
        the program's own, as ``solve`` checks), so an improving column
        always meets a leaving row; one that does not is a solver bug.
        """
        m, cols, basis, x = self.m, self.cols, self.basis, self.x
        in_basis = set(basis)
        y = self._duals(cost)
        while True:
            self.iterations += 1
            if self.iterations > MAX_PIVOTS:
                raise LpboundsError("pivot cap exceeded; possible solver bug")
            d = self.d
            enter = -1
            for j in range(limit):
                if j in in_basis:
                    continue
                d_e = cost[j] * d  # L * D * reduced cost
                for r, v in cols[j]:
                    d_e -= y[r] * v
                if d_e < 0:
                    enter = j
                    break
            if enter < 0:
                self.y = y
                return
            u = self._column(enter)
            # ratio x_i / u_i over u_i > 0, compared by cross-multiplying
            leave = -1
            for i in range(m):
                if u[i] > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs, rhs = x[i] * u[leave], x[leave] * u[i]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise LpboundsError(f"no row leaves the basis for improving column {enter}; solver bug")
            p = u[leave]
            y = [(a * p + d_e * b) // d for a, b in zip(y, self._row(leave))]
            self._pivot(leave, u)
            in_basis.discard(basis[leave])
            in_basis.add(enter)
            basis[leave] = enter

    def run(self) -> LPSolution:
        """Both phases; the solution is returned uncertified."""
        phase1_iterations = 0
        if self.n_total > self.n_structural:
            self._iterate(self.cost1, self.n_total)
            phase1_iterations = self.iterations
            if any(self.x[i] for i in range(self.m) if self.basis[i] >= self.n_structural):
                den = self.l1 * self.d
                vector = {
                    i: Fraction(self.flip[i] * self.sigma[i] * y, den)
                    for i, y in enumerate(self.y)
                    if y
                }
                return LPSolution(
                    "infeasible", None, {}, (), self.iterations, phase1_iterations,
                    {"kind": "farkas", "vector": vector},
                )
            self._drive_out_artificials()

        self._iterate(self.cost2, self.n_structural)
        x_den = self.d * self.lb
        x_std = {self.basis[i]: Fraction(xi, x_den) for i, xi in enumerate(self.x) if xi}
        primal = {v: x_std[j] for j, v in enumerate(self.lp.variables) if j in x_std}
        den = self.l2 * self.d
        dual = tuple(
            Fraction(self.flip[i] * self.sigma[i] * y, den)
            for i, y in enumerate(self.y)
        )
        return LPSolution(
            "optimal", self.lp.objective_value(primal), primal, dual,
            self.iterations, phase1_iterations,
        )


_cache_dir: str | None = None


def set_cache_dir(path: str | None) -> None:
    """Enable (or disable with None) on-disk caching of LP solutions."""
    global _cache_dir
    _cache_dir = path


def _program_key(lp: LinearProgram) -> str:
    """sha256 of a canonical encoding of the integer form.

    The names come first, between the constant lines ``min`` and ``[]``
    that keep keys equal to those of existing cache entries, then each row,
    the objective first: its relation, scale, rhs, length and coefficients
    as text (one coefficient for a row whose coefficients are all equal),
    then its columns as 8-byte integers.  The program's name and the row
    labels play no part.
    """
    h = hashlib.sha256(f"min\n{json.dumps(lp.variables)}\n[]\n".encode())
    for r in (lp.cost, *lp.rows):
        c = r.coeffs
        coeffs = f"*{c[0]}" if c and c.count(c[0]) == len(c) else ",".join(map(str, c))
        h.update(f"{r.rel} {r.s} {r.rhs} {len(c)} {coeffs}\n".encode())
        h.update(struct.pack(f"<{len(c)}q", *r.cols))
    return h.hexdigest()


def _solution_from_record(rec: object) -> LPSolution | None:
    """The optimal solution a cache record holds; None for anything else."""
    if not isinstance(rec, dict) or rec.get("status") != "optimal":
        return None  # only optimal solves are cached
    value, primal, dual = rec.get("value"), rec.get("primal"), rec.get("dual")
    counts = (rec.get("iterations"), rec.get("phase1_iterations"))
    if not (
        isinstance(value, str)
        and isinstance(primal, dict)
        and isinstance(dual, list)
        and all(isinstance(t, str) for t in (*primal.values(), *dual))
        and all(type(k) is int and k >= 0 for k in counts)
    ):
        return None
    try:
        return LPSolution(
            status="optimal",
            value=parse_rational(value),
            primal={v: parse_rational(c) for v, c in primal.items()},
            dual=tuple(parse_rational(y) for y in dual),
            iterations=counts[0],
            phase1_iterations=counts[1],
        )
    except ParseError:
        return None


def _cache_load(lp: LinearProgram, path: str) -> LPSolution | None:
    """The solution cached at ``path`` if it certifies for ``lp``; any other entry is a miss."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sol = _solution_from_record(json.load(fh))
    except (OSError, ValueError):  # missing, unreadable or not JSON
        return None
    # never trust the cache blindly: the entry must certify itself
    if sol is None or certify(lp, sol):
        return None
    return sol


def _cache_store(path: str, sol: LPSolution) -> None:
    if sol.status != "optimal":
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # a temp name of its own, so concurrent writers never share one
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(sol.to_record(), fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def solve(lp: LinearProgram) -> LPSolution:
    """Solve exactly; every result has passed ``certify`` before it is returned.

    A program with a negative cost coefficient is refused, before it is
    keyed: with cost >= 0 and x >= 0 no optimum is below 0.  An optimal
    solution carries a primal point and a dual certificate that pass
    ``check_feasible`` and ``check_dual_feasible`` with equal objective
    values; an infeasible one a Farkas vector.  With a cache directory set,
    the program is keyed once and the key serves both the load and the
    store.
    """
    cost = lp.cost
    for j, a in zip(cost.cols, cost.coeffs):
        if a < 0:
            raise LpboundsError(f"negative cost {Fraction(a, cost.s)} on column {lp.variables[j]!r}")
    path = None if _cache_dir is None else os.path.join(_cache_dir, _program_key(lp) + ".json")
    cached = path and _cache_load(lp, path)
    if cached:
        return cached
    sol = _Simplex(lp).run()
    failures = certify(lp, sol)
    if failures:
        raise LpboundsError(f"{failures[0]}; solver bug")
    if path:
        _cache_store(path, sol)
    return sol
