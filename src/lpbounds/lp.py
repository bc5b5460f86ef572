"""Exact rational linear programming with certified primal/dual solutions.

The solver is a two-phase revised simplex with Bland's pivoting rule:
entering variable is the lowest-index column with a negative reduced cost,
leaving row breaks ratio ties by lowest basic column index.  Bland's rule
guarantees termination and makes every solve deterministic: the same
program always produces the same pivot sequence, hence byte-identical
solutions.

The core is integer-preserving (Edmonds 1967; Bareiss 1968); no gcd is
taken while pivoting.  Each row, sign-flipped to a nonnegative right-hand
side, is multiplied by the lcm ``s_i`` of its denominators.  Slack, surplus
and artificial columns keep the entry +-1 in the scaled row, so each stands
for its original variable times ``s_i``; the artificial of row i costs
``1/s_i`` so that the phase-1 objective is unchanged.  Positive row and
column scaling leaves every reduced-cost sign and every ratio-test value
as it was, so Bland's rule takes the pivots it would take on the unscaled
program.  The state is integer throughout:

  B^-1 = N / D for the scaled basis B, with N integer and D = |det B| > 0;
  D * x_B and L * D * y are integers (L = lcm of the phase's cost
  denominators), as is L * D times every reduced cost.

A pivot on row l for the entering column a_e, with u = N a_e and p = u_l,
replaces every other row i of N and x by (p * row_i - u_i * row_l) / D and
sets D = p.  By Sylvester's identity each of these divisions is exact, so
``//`` never rounds; were one wrong it would floor silently, which is why
every result is certified before it is returned.  Only when artificials
are driven out after phase 1 can p be negative; N, x and D are then
negated.  The integer duals Y = L * D * y are built once per phase and then
updated in O(m) per pivot, Y' = (p * Y + d_e * N_l) / D, where d_e is L * D
times the reduced cost of the entering column.  Fractions are made only at
the boundary: basic values, duals, the Farkas vector and the ray.

Every solve is certified before it is returned (``certify``): an optimal
primal point is checked against all constraints, the dual vector against
the derived dual program, and the two objective values are compared as
exact rationals.  Infeasible programs come with a Farkas certificate,
unbounded ones with an improving ray, checked by ``check_farkas`` and
``check_ray``, and an unbounded one also with the feasible point the ray
leaves.  Cached solutions pass the same ``certify`` on load.  The checks
are fraction-free too: each row is scaled to integers by the same s_i as
in the simplex (``_integer_row``), a point by the lcm of its
denominators, and a dual y_i / s_i and the costs by one common
denominator, so every comparison and every objective value is an integer
sum.  A Fraction is built only for the lhs of a violation and for a
returned objective value.

Dual conventions (for a minimization program):
  row ``>=``  ->  y_i >= 0;   row ``<=``  ->  y_i <= 0;   row ``=`` -> free
  nonneg var j:  sum_i y_i a_ij <= c_j;   free var j: equality
  optimal dual objective:  sum_i y_i b_i  ==  primal optimum
For maximization the inequalities reverse (y_i >= 0 on ``<=`` rows, and
sum_i y_i a_ij >= c_j on nonneg columns).
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm

from .errors import LpboundsError, ParseError
from .rational import format_rational, parse_rational

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

MAX_PIVOTS = 2_000_000


def _fraction(q) -> Fraction:
    """``q`` as a Fraction; one that already is one is returned as it is."""
    return q if isinstance(q, Fraction) else Fraction(q)


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[str, Fraction]
    rel: str
    rhs: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        if self.rel not in _RELS:
            raise LpboundsError(f"unknown relation {self.rel!r}")
        # sparse rows carry no explicit zeros
        cleaned = {v: _fraction(c) for v, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "rhs", _fraction(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    name: str
    sense: str  # "min" | "max"
    variables: tuple[str, ...]
    objective: dict[str, Fraction]
    constraints: tuple[Constraint, ...]
    nonneg: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise LpboundsError(f"sense must be min or max, got {self.sense!r}")
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise LpboundsError("duplicate variable names")
        for v in self.objective:
            if v not in declared:
                raise LpboundsError(f"objective references undeclared variable {v!r}")
        for con in self.constraints:
            for v in con.coeffs:
                if v not in declared:
                    raise LpboundsError(
                        f"constraint {con.label!r} references undeclared variable {v!r}"
                    )
        object.__setattr__(
            self, "objective", {v: _fraction(c) for v, c in self.objective.items() if c != 0}
        )

    def is_nonneg(self, var: str) -> bool:
        return self.nonneg.get(var, True)

    def objective_value(self, assignment: dict[str, Fraction]) -> Fraction:
        return _dot((c, assignment.get(v, 0)) for v, c in self.objective.items())


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
    status: str  # "optimal" | "infeasible" | "unbounded"
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


def _integer_row(con: Constraint) -> tuple[int, dict[str, int], int]:
    """``(s, s * coeffs, s * rhs)``, s > 0 the lcm of the row's denominators.

    The scaled row has integer entries and states the same relation; the
    simplex and every checker scale rows this way.
    """
    s = lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs.values()))
    row = {v: c.numerator * (s // c.denominator) for v, c in con.coeffs.items()}
    return s, row, con.rhs.numerator * (s // con.rhs.denominator)


def _dot(pairs) -> Fraction:
    """The exact sum of a * b over rational pairs, summed as integers over one denominator."""
    pairs = [(a, b) for a, b in pairs if a and b]
    da = lcm(*(a.denominator for a, _ in pairs))
    db = lcm(*(b.denominator for _, b in pairs))
    total = sum(a.numerator * (da // a.denominator) * b.numerator * (db // b.denominator)
                for a, b in pairs)
    return Fraction(total, da * db)


def check_feasible(lp: LinearProgram, assignment: dict[str, Fraction]) -> list[Violation]:
    """every violated constraint with its exact slack; [] iff feasible.

    Variables missing from the assignment are treated as 0.  Row i scaled
    by s_i and the assignment by the lcm L of its denominators compare as
    integers; the Fraction lhs is built only for a violated row.
    """
    big_l = lcm(*(x.denominator for x in assignment.values()))
    point = {v: x.numerator * (big_l // x.denominator) for v, x in assignment.items() if x}
    out: list[Violation] = []
    for i, con in enumerate(lp.constraints):
        s, row, rhs = _integer_row(con)
        lhs = sum(a * point[v] for v, a in row.items() if v in point)
        rhs *= big_l
        ok = lhs <= rhs if con.rel == LE else lhs >= rhs if con.rel == GE else lhs == rhs
        if not ok:
            lhs = Fraction(lhs, s * big_l)
            out.append(Violation("constraint", i, con.label, lhs, con.rel, con.rhs))
    for j, v in enumerate(lp.variables):
        val = assignment.get(v, Fraction(0))
        if lp.is_nonneg(v) and val < 0:
            out.append(Violation("domain", j, v, val, GE, Fraction(0)))
    return out


def check_dual_feasible(
    lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]
) -> list[Violation]:
    """Violations of the derived dual program for ``dual``; [] iff dual-feasible.

    Column sums are integers over one common denominator M of every
    y_i / s_i and every objective coefficient, as is M * c_j; the Fraction
    sum is built only for a violated column.
    """
    if len(dual) != len(lp.constraints):
        raise LpboundsError("dual vector length does not match constraint count")
    minimize = lp.sense == "min"
    out: list[Violation] = []
    for i, con in enumerate(lp.constraints):
        y = dual[i]
        if con.rel == EQ:
            continue
        # min: >= rows need y >= 0, <= rows need y <= 0; max is reversed.
        wants_nonneg = (con.rel == GE) == minimize
        if wants_nonneg and y < 0:
            out.append(Violation("dual-sign", i, con.label, y, GE, Fraction(0)))
        if not wants_nonneg and y > 0:
            out.append(Violation("dual-sign", i, con.label, y, LE, Fraction(0)))
    # y_i * c_ij = (y_i / s_i) * a_ij on the integer row a_i = s_i * c_i
    weights = []
    for y, con in zip(dual, lp.constraints):
        if y:
            s, row, _ = _integer_row(con)
            g = gcd(y.numerator, s)
            weights.append((y.numerator // g, y.denominator * (s // g), row))
    big_m = lcm(*(den for _, den, _ in weights), *(c.denominator for c in lp.objective.values()))
    col_sums = dict.fromkeys(lp.variables, 0)
    for num, den, row in weights:
        w = num * (big_m // den)
        for v, a in row.items():
            col_sums[v] += w * a
    for j, v in enumerate(lp.variables):
        lhs = col_sums[v]
        c = lp.objective.get(v, Fraction(0))
        rhs = c.numerator * (big_m // c.denominator)
        if lp.is_nonneg(v):
            ok = lhs <= rhs if minimize else lhs >= rhs
            rel = LE if minimize else GE
        else:
            ok = lhs == rhs
            rel = EQ
        if not ok:
            out.append(Violation("dual-column", j, v, Fraction(lhs, big_m), rel, c))
    return out


def dual_objective(lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]) -> Fraction:
    return _dot(zip(dual, (con.rhs for con in lp.constraints)))


def check_farkas(lp: LinearProgram, vector: dict[int, Fraction]) -> bool:
    """True iff ``vector`` certifies infeasibility of ``lp``'s constraints.

    A Farkas vector is a feasible dual of the zero-objective minimization
    with a positive dual objective: no primal point can meet the rows.
    """
    y = [vector.get(i, Fraction(0)) for i in range(len(lp.constraints))]
    zero = replace(lp, sense="min", objective={})
    return not check_dual_feasible(zero, y) and dual_objective(lp, y) > 0


def check_ray(lp: LinearProgram, ray: dict[str, Fraction]) -> bool:
    """True iff ``ray`` is a feasible improving direction (proves unboundedness).

    A ray is a feasible point of the homogeneous program (every rhs 0)
    along which the objective improves.
    """
    homogeneous = replace(lp, constraints=tuple(replace(c, rhs=0) for c in lp.constraints))
    rate = lp.objective_value(ray)
    improving = rate < 0 if lp.sense == "min" else rate > 0
    return improving and not check_feasible(homogeneous, ray)


def certify(lp: LinearProgram, sol: LPSolution) -> list[str]:
    """Every way ``sol`` fails to certify its status for ``lp``; [] iff it holds.

    An optimal solution needs a feasible primal over declared variables, a
    feasible dual of matching length and equal primal, dual and reported
    values; an infeasible one a Farkas vector, an unbounded one a feasible
    primal point (a ray alone shows no point is feasible) and a ray.
    """
    if sol.status == "optimal":
        undeclared = sorted(set(sol.primal) - set(lp.variables))
        if undeclared:
            return [f"primal names undeclared variables {undeclared}"]
        if len(sol.dual) != len(lp.constraints):
            return ["dual vector length does not match constraint count"]
        failures = [f"optimal primal failed re-check: {v}" for v in check_feasible(lp, sol.primal)]
        failures += [f"optimal dual failed re-check: {v}" for v in check_dual_feasible(lp, sol.dual)]
        if lp.objective_value(sol.primal) != sol.value:
            failures.append("primal objective differs from the reported value")
        if dual_objective(lp, sol.dual) != sol.value:
            failures.append("strong duality certificate failed")
        return failures
    checks = {"infeasible": ("farkas", check_farkas), "unbounded": ("ray", check_ray)}
    if sol.status not in checks:
        return [f"unknown status {sol.status!r}"]
    kind, check = checks[sol.status]
    cert = sol.certificate
    failures = []
    if cert is None or cert.get("kind") != kind or not check(lp, cert["vector"]):
        failures.append(f"invalid {kind} certificate")
    if sol.status == "unbounded":
        failures += [f"unbounded primal failed re-check: {v}"
                     for v in check_feasible(lp, sol.primal)]
    return failures


class _Simplex:
    """Integer standard form and basis state for one solve; used once."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        m = len(lp.constraints)
        self.m = m
        # columns: per-variable (split when free), then slacks, then artificials
        self.cols: list[list[tuple[int, int]]] = []
        self.var_cols: dict[str, tuple[int, int | None]] = {}
        sense_sign = 1 if lp.sense == "min" else -1
        cost2: list[Fraction] = []
        for v in lp.variables:
            c = sense_sign * lp.objective.get(v, Fraction(0))
            plus, minus = len(self.cols), None
            self.cols.append([])
            cost2.append(c)
            if not lp.is_nonneg(v):
                minus = len(self.cols)
                self.cols.append([])
                cost2.append(-c)
            self.var_cols[v] = (plus, minus)
        self.n_real = len(self.cols)

        self.flip: list[int] = []
        self.scale: list[int] = []
        self.x: list[int] = []  # D * basic values; the scaled b while D = 1
        rels: list[str] = []
        for i, con in enumerate(lp.constraints):
            sign = -1 if con.rhs < 0 else 1
            s, row, rhs = _integer_row(con)
            for v, a in row.items():
                a *= sign
                plus, minus = self.var_cols[v]
                self.cols[plus].append((i, a))
                if minus is not None:
                    self.cols[minus].append((i, -a))
            self.flip.append(sign)
            self.scale.append(s)
            self.x.append(sign * rhs)
            rels.append(con.rel if sign > 0 else {LE: GE, GE: LE, EQ: EQ}[con.rel])

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
        self.l2 = lcm(*(c.denominator for c in cost2))
        self.cost2 = [c.numerator * (self.l2 // c.denominator) for c in cost2]
        self.cost2 += [0] * (self.n_total - self.n_real)
        self.l1 = lcm(*(self.scale[i] for i in artificial_rows))
        self.cost1 = [0] * self.n_structural + [self.l1 // self.scale[i] for i in artificial_rows]

        self.n: list[list[int]] = [[int(i == k) for k in range(m)] for i in range(m)]
        self.d = 1
        self.y: list[int] = []  # L * D * duals of the last phase run
        self.iterations = 0

    def _column(self, j: int) -> list[int]:
        """N * a_j, i.e. D times the basic direction of column j."""
        col = self.cols[j]
        return [sum(row[r] * v for r, v in col) for row in self.n]

    def _duals(self, cost: list[int]) -> list[int]:
        y = [0] * self.m
        for k, j in enumerate(self.basis):
            if cost[j]:
                y = [a + cost[j] * b for a, b in zip(y, self.n[k])]
        return y

    def _pivot(self, l: int, u: list[int]) -> None:
        """Exchange the basic column of row ``l`` for the column with N * a = u."""
        p, d, n, x = u[l], self.d, self.n, self.x
        nl, xl = n[l], x[l]
        for i, ui in enumerate(u):
            if i == l:
                continue
            if ui:
                n[i] = [(p * a - ui * b) // d for a, b in zip(n[i], nl)]
                x[i] = (p * x[i] - ui * xl) // d
            elif p != d:
                n[i] = [p * a // d for a in n[i]]
                x[i] = p * x[i] // d
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
            row_i = self.n[i]
            for j in range(self.n_structural):
                if j in in_basis or sum(row_i[r] * v for r, v in self.cols[j]) == 0:
                    continue
                self._pivot(i, self._column(j))
                if self.d < 0:
                    self.d = -self.d
                    self.n[:] = [[-a for a in row] for row in self.n]
                    self.x[:] = [-a for a in self.x]
                in_basis.discard(self.basis[i])
                in_basis.add(j)
                self.basis[i] = j
                break

    def _iterate(self, cost: list[int], limit: int) -> str:
        """Run simplex to optimality; returns "optimal" or "unbounded"."""
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
                return "optimal"
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
                self.unbounded = (enter, u)
                return "unbounded"
            p = u[leave]
            y = [(a * p + d_e * b) // d for a, b in zip(y, self.n[leave])]
            self._pivot(leave, u)
            in_basis.discard(basis[leave])
            in_basis.add(enter)
            basis[leave] = enter

    def _project(self, std: dict[int, Fraction]) -> dict[str, Fraction]:
        """Standard-form column values back on the program's variables, zeros dropped."""
        out: dict[str, Fraction] = {}
        for v, (plus, minus) in self.var_cols.items():
            val = std.get(plus, Fraction(0))
            if minus is not None:
                val -= std.get(minus, Fraction(0))
            if val != 0:
                out[v] = val
        return out

    def run(self) -> LPSolution:
        """Both phases; the solution is returned uncertified."""
        phase1_iterations = 0
        if self.n_total > self.n_structural:
            status = self._iterate(self.cost1, self.n_total)
            phase1_iterations = self.iterations
            if status != "optimal":
                raise LpboundsError("phase-1 objective is bounded; solver bug")
            if any(self.x[i] for i in range(self.m) if self.basis[i] >= self.n_structural):
                den = self.l1 * self.d
                vector = {
                    i: Fraction(self.flip[i] * self.scale[i] * y, den)
                    for i, y in enumerate(self.y)
                    if y
                }
                return LPSolution(
                    "infeasible", None, {}, (), self.iterations, phase1_iterations,
                    {"kind": "farkas", "vector": vector},
                )
            self._drive_out_artificials()

        status = self._iterate(self.cost2, self.n_structural)
        x_std = {self.basis[i]: Fraction(xi, self.d) for i, xi in enumerate(self.x) if xi}
        primal = self._project(x_std)
        if status == "unbounded":
            enter, u = self.unbounded
            # an entering slack or surplus of row k stands for s_k times the
            # original one, so the original program's ray is s_k times this
            unit = 1 if enter < self.n_real else self.scale[self.cols[enter][0][0]]
            ray_std = {enter: Fraction(1)}
            for i, ui in enumerate(u):
                if ui:
                    ray_std[self.basis[i]] = Fraction(-ui * unit, self.d)
            return LPSolution(
                "unbounded", None, primal, (), self.iterations, phase1_iterations,
                {"kind": "ray", "vector": self._project(ray_std)},
            )

        sense_sign = 1 if self.lp.sense == "min" else -1
        den = self.l2 * self.d
        dual = tuple(
            Fraction(sense_sign * self.flip[i] * self.scale[i] * y, den)
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
    payload = json.dumps(
        {
            "sense": lp.sense,
            "variables": list(lp.variables),
            "objective": {v: format_rational(c) for v, c in sorted(lp.objective.items())},
            "constraints": [
                {
                    "coeffs": {v: format_rational(c) for v, c in sorted(con.coeffs.items())},
                    "rel": con.rel,
                    "rhs": format_rational(con.rhs),
                }
                for con in lp.constraints
            ],
            "nonneg": {v: lp.is_nonneg(v) for v in lp.variables},
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


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


def _cache_load(lp: LinearProgram) -> LPSolution | None:
    """The cached solution of ``lp`` if it certifies; any other entry is a miss."""
    if _cache_dir is None:
        return None
    path = os.path.join(_cache_dir, _program_key(lp) + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sol = _solution_from_record(json.load(fh))
    except (OSError, ValueError):  # missing, unreadable or not JSON
        return None
    # never trust the cache blindly: the entry must certify itself
    if sol is None or certify(lp, sol):
        return None
    return sol


def _cache_store(lp: LinearProgram, sol: LPSolution) -> None:
    if _cache_dir is None or sol.status != "optimal":
        return
    os.makedirs(_cache_dir, exist_ok=True)
    path = os.path.join(_cache_dir, _program_key(lp) + ".json")
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

    An optimal solution carries a primal point and a dual certificate that
    pass ``check_feasible`` and ``check_dual_feasible`` with equal objective
    values; an infeasible one a Farkas vector, an unbounded one a feasible
    point and a ray.
    """
    cached = _cache_load(lp)
    if cached is not None:
        return cached
    sol = _Simplex(lp).run()
    failures = certify(lp, sol)
    if failures:
        raise LpboundsError(f"{failures[0]}; solver bug")
    _cache_store(lp, sol)
    return sol
