import dataclasses
import itertools
import json
import math
from fractions import Fraction as F

import pytest
import reference_lp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_lp import Constraint, from_constraints, reference_solve

from lpbounds import families
from lpbounds import lp as lpmod
from lpbounds.ccbounds import SrecInstance, _rect_family, build_prt_lp, build_rprt_lp, build_srec_lp
from lpbounds.errors import LpboundsError
from lpbounds.lp import (
    LinearProgram,
    Row,
    check_dual_feasible,
    check_farkas,
    check_feasible,
    dual_objective,
    certify,
    set_cache_dir,
    solve,
)
from lpbounds.model import enumerate_rectangles
from lpbounds.qcbounds import _cube_family, build_qprt_lp


def lp_min(variables, objective, constraints):
    return from_constraints("t", tuple(variables), objective, tuple(constraints))


def test_min_x_at_least_one():
    sol = solve(lp_min(["x"], {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))]))
    assert sol.status == "optimal" and sol.value == 1
    assert sol.primal == {"x": F(1)}


def test_zero_solution_feasible():
    # covering level 1 - eps with eps = 1 asks for >= 0: all-zero is optimal
    sol = solve(
        lp_min(["x", "y"], {"x": F(1), "y": F(1)}, [Constraint({"x": F(1), "y": F(1)}, ">=", F(0))])
    )
    assert sol.value == 0 and sol.primal == {}


def test_eq2_zero_error_srec_is_four():
    """The z=1 smooth rectangle LP at eps = delta = 0 for 4x4 equality.

    Independent derivation: the packing rows force weight 0 on every
    rectangle touching an off-diagonal cell, so only the four diagonal
    singletons may carry weight, and covering forces each of them to 1.
    """
    f = families.eq(2)
    diagonal_only = [
        r
        for r in enumerate_rectangles(4, 4)
        if all(x == y for x in range(4) for y in range(4) if r.contains(x, y))
    ]
    assert len(diagonal_only) == 4
    assert all(r.rows == r.cols and r.rows.bit_count() == 1 for r in diagonal_only)

    lp = build_srec_lp(SrecInstance(f, 1, F(0), F(0)))
    sol = solve(lp)
    assert sol.value == 4
    # the solver's optimum is supported exactly on those singletons, each at 1
    assert sol.primal == {f"w_{r.rows:x}_{r.cols:x}": F(1) for r in diagonal_only}


MALFORMED_ROWS = {
    "zero scale": Row(0, (0,), (1,), ">=", 1, "r"),
    "negative scale": Row(-1, (0,), (1,), ">=", 1, "r"),
    "zero coefficient": Row(1, (0, 1), (1, 0), ">=", 1, "r"),
    "a column without a coefficient": Row(1, (0, 1), (1,), ">=", 1, "r"),
    "a coefficient without a column": Row(1, (0,), (1, 1), ">=", 1, "r"),
}


@pytest.mark.parametrize("row", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_malformed_row_is_a_typed_error(row):
    """A program with such a row, or such an objective, is refused when it is built.

    min x subject to ``Row(0, (0,), (1,), ">=", 1, "r")`` used to divide by
    zero in the solver, and the same row with s = -1 to end as a solver bug.
    """
    cost = Row(1, (0,), (1,), "=", 0, "objective")
    with pytest.raises(LpboundsError, match="'r'"):
        LinearProgram("t", ("x", "y"), cost, (row,))
    with pytest.raises(LpboundsError, match="'r'"):
        LinearProgram("t", ("x", "y"), row, ())


def test_check_feasible_reports_slack():
    lp = lp_min(["x", "y"], {"x": F(1)}, [Constraint({"x": F(1), "y": F(1)}, "=", F(1), "mass")])
    viols = check_feasible(lp, {})
    assert len(viols) == 1
    assert viols[0].label == "mass" and viols[0].lhs - viols[0].rhs == -1


def test_solve_primal_passes_recheck():
    f = families.and2p(2)
    lp = build_srec_lp(SrecInstance(f, 0, F(1, 8), F(1, 8)))
    sol = solve(lp)
    assert check_feasible(lp, sol.primal) == []
    assert check_dual_feasible(lp, sol.dual) == []
    assert dual_objective(lp, sol.dual) == sol.value


def test_determinism_byte_identical():
    f = families.xor2p(2)
    lp = build_srec_lp(SrecInstance(f, 0, F(1, 8), F(1, 4)))
    a = solve(lp).canonical_bytes()
    b = solve(lp).canonical_bytes()
    assert a == b


def test_objective_scaling_preserves_basis():
    f = families.and2p(2)
    lp = build_srec_lp(SrecInstance(f, 1, F(1, 8), F(1, 8)))
    sol = solve(lp)
    scaled = from_constraints(
        lp.name,
        lp.variables,
        {v: F(3, 2) * c for v, c in reference_lp.objective(lp).items()},
        reference_lp.rational_rows(lp),
    )
    sol2 = solve(scaled)
    assert sol2.value == F(3, 2) * sol.value
    assert sol2.primal == sol.primal
    assert sol2.iterations == sol.iterations


def test_infeasible_with_farkas_certificate():
    lp = lp_min(
        ["x"],
        {"x": F(1)},
        [Constraint({"x": F(1)}, ">=", F(3)), Constraint({"x": F(1)}, "<=", F(1))],
    )
    sol = solve(lp)
    assert sol.status == "infeasible"
    assert sol.certificate is not None and sol.certificate["kind"] == "farkas"
    assert check_farkas(lp, sol.certificate["vector"])


def test_negative_rhs_rows_are_handled():
    # x >= -5 is inactive; optimum at x = 0
    lp = lp_min(["x"], {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(-5))])
    assert solve(lp).value == 0


def test_undeclared_variable_rejected():
    with pytest.raises(Exception):
        lp_min(["x"], {"x": F(1)}, [Constraint({"z": F(1)}, ">=", F(1))])


def test_certify_lists_every_failure():
    program = lp_min(["x"], {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(3)), Constraint({"x": F(1)}, "<=", F(1))])
    infeasible = solve(program)
    assert certify(program, infeasible) == []
    wrong_kind = dataclasses.replace(infeasible, certificate={"kind": "ray", "vector": {}})
    assert certify(program, wrong_kind) == ["invalid farkas certificate"]
    assert certify(program, dataclasses.replace(infeasible, status="unbounded")) == ["unknown status 'unbounded'"]
    assert certify(program, dataclasses.replace(infeasible, status="lost")) == ["unknown status 'lost'"]

    optimal = solve(cached_program())
    assert certify(cached_program(), optimal) == []
    failures = certify(cached_program(), dataclasses.replace(optimal, value=F(0)))
    assert failures == ["primal objective differs from the reported value", "strong duality certificate failed"]


@pytest.fixture()
def cache_dir(tmp_path):
    set_cache_dir(str(tmp_path))
    yield tmp_path
    set_cache_dir(None)


def cached_program():
    return lp_min(
        ["x", "y"],
        {"x": F(1), "y": F(2)},
        [Constraint({"x": F(1), "y": F(1)}, ">=", F(3, 2)), Constraint({"x": F(1)}, "<=", F(2))],
    )


def _edit(**fields):
    return lambda rec: json.dumps({**rec, **fields}).encode()


def _drop(key):
    return lambda rec: json.dumps({k: v for k, v in rec.items() if k != key}).encode()


CORRUPT_ENTRIES = {
    "truncated json": lambda rec: json.dumps(rec).encode()[:-3],
    "not utf-8": lambda rec: b"\xff\xfe\x00",
    "empty file": lambda rec: b"",
    "json list": lambda rec: b"[]",
    "missing value": _drop("value"),
    "missing primal": _drop("primal"),
    "missing iterations": _drop("iterations"),
    "value is a number": _edit(value=3),
    "primal is a list": _edit(primal=[["x", "1"]]),
    "dual is a string": _edit(dual="10"),  # iterates to the optimal dual 1, 0
    "dual entry is a number": _edit(dual=[0, 2]),
    "iterations is a string": _edit(iterations="3"),
    "iterations is a bool": _edit(iterations=True),
    "value is a decimal": _edit(value="2.5"),
    "value divides by zero": _edit(value="1/0"),
    "primal entry is garbage": _edit(primal={"x": "one"}),
    "dual too short": _edit(dual=["0"]),
    "primal names a foreign variable": _edit(primal={"x": "3/2", "z": "0"}),
    "value does not certify": _edit(value="0"),
}


@pytest.mark.parametrize("corrupt", CORRUPT_ENTRIES.values(), ids=CORRUPT_ENTRIES.keys())
def test_corrupt_cache_entry_is_a_miss(cache_dir, corrupt):
    program = cached_program()
    fresh = solve(program)
    (entry,) = cache_dir.glob("*.json")
    entry.write_bytes(corrupt(json.loads(entry.read_text())))
    assert solve(program).canonical_bytes() == fresh.canonical_bytes()
    assert json.loads(entry.read_text()) == fresh.to_record()  # the miss rewrote the entry


def test_cache_store_leaves_another_writers_temp_file_alone(cache_dir):
    program = cached_program()
    entry = cache_dir / (lpmod._program_key(program) + ".json")
    other = cache_dir / (entry.name + ".tmp")  # the temp name one writer used for every entry
    other.write_text("half written")
    solve(program)
    assert other.read_text() == "half written"
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted([entry.name, other.name])


def test_solve_keys_a_program_once(cache_dir, monkeypatch):
    """A cold cached solve and a cache hit each compute the program key once."""
    keys = []
    program_key = lpmod._program_key
    monkeypatch.setattr(lpmod, "_program_key", lambda lp: keys.append(lp) or program_key(lp))
    program = cached_program()
    cold = solve(program)
    assert len(keys) == 1 and len(list(cache_dir.glob("*.json"))) == 1
    keys.clear()
    monkeypatch.setattr(lpmod, "_Simplex", None)  # a hit never builds a simplex
    assert solve(program).canonical_bytes() == cold.canonical_bytes()
    assert len(keys) == 1


# min -x subject to x - y <= 2 over x, y >= 0 improves without bound along x = y
NEGATIVE_COST = lp_min(["x", "y"], {"x": F(-1), "y": F(0)}, [Constraint({"x": F(1), "y": F(-1)}, "<=", F(2))])


def test_solve_refuses_a_negative_cost(cache_dir):
    """A negative cost is refused, naming its column, before the program is keyed; 0 is taken."""
    with pytest.raises(LpboundsError, match="'x'"):
        solve(NEGATIVE_COST)
    assert list(cache_dir.iterdir()) == []
    zero = dataclasses.replace(NEGATIVE_COST, cost=Row(1, (), (), "=", 0, "objective"))
    sol = solve(zero)
    assert sol.status == "optimal" and sol.value == 0 and certify(zero, sol) == []


def test_simplex_without_a_leaving_row_is_a_solver_bug():
    """Past ``solve``'s check, an improving column that no row bounds is a typed error."""
    with pytest.raises(LpboundsError, match="solver bug"):
        lpmod._Simplex(NEGATIVE_COST).run()


def _key(variables=("x", "y", "z"), objective=None, rows=None):
    objective = {"x": F(1), "y": F(1, 2)} if objective is None else objective
    rows = rows or (
        Constraint({"x": F(1), "y": F(2, 3)}, ">=", F(1, 2)),
        Constraint({"y": F(1), "z": F(-1)}, "<=", F(3)),
    )
    program = from_constraints("k", variables, objective, rows)
    return lpmod._program_key(program)


def test_program_key_is_canonical():
    """Dict order, ints for whole Fractions, zero coefficients, names and
    labels leave the key alone; any one change to the program alters it."""
    key = _key()
    respelled = from_constraints(
        "another name", ("x", "y", "z"), {"y": F(2, 4), "x": 1, "z": 0},
        (Constraint({"y": F(4, 6), "x": 1, "z": 0}, ">=", F(1, 2), "a label"),
         Constraint({"z": -1, "y": F(1)}, "<=", 3, "another label")),
    )
    assert lpmod._program_key(respelled) == key
    changed = {
        "row coefficient": _key(rows=(Constraint({"x": F(1), "y": F(1, 3)}, ">=", F(1, 2)),
                                      Constraint({"y": F(1), "z": F(-1)}, "<=", F(3)))),
        "objective coefficient": _key(objective={"x": F(1), "y": F(1, 3)}),
        "relation": _key(rows=(Constraint({"x": F(1), "y": F(2, 3)}, "=", F(1, 2)),
                               Constraint({"y": F(1), "z": F(-1)}, "<=", F(3)))),
        "rhs": _key(rows=(Constraint({"x": F(1), "y": F(2, 3)}, ">=", F(1, 2)),
                          Constraint({"y": F(1), "z": F(-1)}, "<=", F(4)))),
        "variable name": _key(variables=("x", "y", "w"),
                              rows=(Constraint({"x": F(1), "y": F(2, 3)}, ">=", F(1, 2)),
                                    Constraint({"y": F(1), "w": F(-1)}, "<=", F(3)))),
    }
    assert key not in changed.values()
    assert len(set(changed.values())) == len(changed)


# Differential tests against the Fraction simplex the integer core replaced.

SMALL_RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
# every cost is >= 0, as ``solve`` requires; rows and right-hand sides keep both signs
COSTS = st.builds(F, st.integers(0, 4), st.integers(1, 6))


@st.composite
def small_program_args(draw):
    """The arguments of ``reference_lp.from_constraints`` for ``small_programs``."""
    return _small_program_args(draw)


def small_programs():
    return small_program_args().map(lambda args: from_constraints(*args))


def _small_program_args(draw):
    """Random programs with up to 4 variables and 5 rows.

    Fractional coefficients and negative right-hand sides are common, and
    all three relations occur; costs are >= 0.  An optional last
    ``=`` row is a combination of two earlier rows, which leaves the system
    linearly dependent.
    """
    names = [f"x{j}" for j in range(draw(st.integers(1, 4)))]
    rows = [
        Constraint(
            {v: draw(SMALL_RATIONALS) for v in names},
            draw(st.sampled_from(["<=", "=", ">="])),
            draw(SMALL_RATIONALS),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(SMALL_RATIONALS)
        coeffs = {v: a.coeffs.get(v, F(0)) + k * b.coeffs.get(v, F(0)) for v in names}
        rows.append(Constraint(coeffs, "=", a.rhs + k * b.rhs))
    return "random", tuple(names), {v: draw(COSTS) for v in names}, tuple(rows)


# both rows start on artificials at level 0 and phase 1 makes no pivot; the
# first can only be driven out by a pivot on -1, the second is dependent
NEGATIVE_DRIVE_OUT = from_constraints(
    "negative drive-out", ("x0", "x1"), {"x0": F(1), "x1": F(2)},
    (Constraint({"x0": F(-1), "x1": F(-1)}, "=", F(0)), Constraint({"x0": F(-2), "x1": F(-2)}, "=", F(0))),
)


@settings(max_examples=400, deadline=None)
@given(small_programs())
@example(NEGATIVE_DRIVE_OUT)
def test_integer_core_matches_fraction_reference(program):
    """Byte-equal solutions, certificate included."""
    got, want = solve(program), reference_solve(program)
    assert got.certificate == want.certificate
    assert got.canonical_bytes() == want.canonical_bytes()


def test_drive_out_pivots_on_a_negative_element(monkeypatch):
    pivots, states = [], []
    pivot, run = lpmod._Simplex._pivot, lpmod._Simplex.run

    def record_pivot(sx, l, u):
        pivots.append(u[l])
        pivot(sx, l, u)

    def record_run(sx):
        states.append(sx)
        return run(sx)

    monkeypatch.setattr(lpmod._Simplex, "_pivot", record_pivot)
    monkeypatch.setattr(lpmod._Simplex, "run", record_run)
    sol = solve(NEGATIVE_DRIVE_OUT)
    assert min(pivots) < 0
    assert states[0].d > 0  # negated back to a positive denominator
    assert sol.canonical_bytes() == reference_solve(NEGATIVE_DRIVE_OUT).canonical_bytes()


# Lazily scaled rows: row i of N is stored as n[i] with the determinant dd[i]
# at which it was last written, and reads as n[i] * D / dd[i].

def _materialized(sx):
    """Every row of N at the current D; each rescaling must be exact."""
    rows = []
    for row, e in zip(sx.n, sx.dd):
        assert all(a * sx.d % e == 0 for a in row)
        rows.append([a * sx.d // e for a in row])
    return rows


def _integer_rhs(sx):
    """b as the simplex holds it: row i divided by g_i = gcd(s_i, *coeffs), times L_b.

    sigma_i = s_i / g_i, and L_b is the least common multiple that makes
    every flip_i * rhs_i / g_i an integer.
    """
    rhs = []
    for f, row, sigma in zip(sx.flip, sx.lp.rows, sx.sigma):
        g = math.gcd(row.s, *row.coeffs)
        assert sigma == row.s // g
        rhs.append(F(f * row.rhs, g))
    assert sx.lb == math.lcm(*(b.denominator for b in rhs))
    return [int(b * sx.lb) for b in rhs]


def _assert_basis_identity(sx):
    """N * a_basis[k] = D * e_k for every basic column, and x = N * b."""
    rows, rhs = _materialized(sx), _integer_rhs(sx)
    for k, j in enumerate(sx.basis):
        assert [sum(row[r] * v for r, v in sx.cols[j]) for row in rows] == [
            sx.d * (i == k) for i in range(sx.m)]
    assert sx.x == [sum(a * b for a, b in zip(row, rhs)) for row in rows]


def _audited_solve(program):
    """``solve`` with the basis identity checked after every pivot.

    Each pivot is checked at the next pivot (after the drive-out negation and
    the basis update) and at the end of the run.  Every column read is
    compared with N * a_j on materialized rows.  Returns the solution and
    the counts of p = D pivots, p != D pivots and stale rows read; a stale
    row is one a p != D pivot left alone because its u_i was 0.
    """
    counts = dict.fromkeys(("p = D", "p != D", "stale rows read"), 0)
    pivot, column, run = lpmod._Simplex._pivot, lpmod._Simplex._column, lpmod._Simplex.run

    def audit_column(sx, j):
        u = column(sx, j)
        assert u == [sum(row[r] * v for r, v in sx.cols[j]) for row in _materialized(sx)]
        counts["stale rows read"] += sum(e != sx.d for e in sx.dd)
        return u

    def audit_pivot(sx, l, u):
        _assert_basis_identity(sx)
        counts["p = D" if u[l] == sx.d else "p != D"] += 1
        pivot(sx, l, u)

    def audit_run(sx):
        sol = run(sx)
        _assert_basis_identity(sx)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_column", audit_column)
        mp.setattr(lpmod._Simplex, "_pivot", audit_pivot)
        mp.setattr(lpmod._Simplex, "run", audit_run)
        sol = solve(program)
    return sol, counts


@settings(max_examples=200, deadline=None)
@given(small_programs())
@example(NEGATIVE_DRIVE_OUT)
def test_lazy_rows_keep_the_basis_identity(program):
    _audited_solve(program)


def test_lazy_rows_keep_the_basis_identity_on_a_corpus_program():
    program = build_qprt_lp(families.make_function("maj", 4, "qc"), F(1, 8))
    sol, counts = _audited_solve(program)
    assert sol.status == "optimal"
    assert all(counts.values()), counts


def _pivot_trace(program):
    """The solution, and the basis and D before every pivot and at the end of the run."""
    trace = []
    pivot, run = lpmod._Simplex._pivot, lpmod._Simplex.run

    def record_pivot(sx, l, u):
        trace.append((tuple(sx.basis), sx.d, l))
        pivot(sx, l, u)

    def record_run(sx):
        sol = run(sx)
        trace.append((tuple(sx.basis), sx.d))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_pivot", record_pivot)
        mp.setattr(lpmod._Simplex, "run", record_run)
        sol = solve(program)
    return sol, trace


@settings(max_examples=200, deadline=None)
@given(small_program_args(), st.sampled_from([2, 7, 8]))
def test_dividing_every_rhs_keeps_the_bases_and_d(args, k):
    """b / k is one common factor on x: the same bases and D after every pivot.

    A row's rhs denominator does not scale the row, so D = |det B| depends on
    the coefficients alone; the point is divided by k, the dual and any
    certificate are unchanged.
    """
    name, variables, objective, rows = args
    divided = tuple(dataclasses.replace(c, rhs=c.rhs / k) for c in rows)
    sol, trace = _pivot_trace(from_constraints(*args))
    got, got_trace = _pivot_trace(from_constraints(name, variables, objective, divided))
    assert got_trace == trace
    assert got.status == sol.status
    assert got.primal == {v: x / k for v, x in sol.primal.items()}
    assert got.value == (None if sol.value is None else sol.value / k)
    assert (got.dual, got.certificate) == (sol.dual, sol.certificate)


@settings(max_examples=300, deadline=None)
@given(small_programs(), st.data())
def test_certificate_checkers_match_reference(program, data):
    """The zero-objective dual check gives the row-by-row Farkas verdict.

    Candidates are a random vector, the same vector with every sign the
    check demands, and the solver's own certificate with a random multiple.
    """
    rows = program.rows
    y = {i: data.draw(SMALL_RATIONALS) for i in range(len(rows))}
    sign = {">=": abs, "<=": lambda c: -abs(c), "=": lambda c: c}
    farkas = [y, {i: sign[r.rel](c) for (i, c), r in zip(y.items(), rows)}]
    cert = solve(program).certificate
    if cert is not None:
        k = data.draw(SMALL_RATIONALS)
        farkas += [cert["vector"], {key: k * c for key, c in cert["vector"].items()}]
    for vector in farkas:
        assert check_farkas(program, vector) == reference_lp.check_farkas(program, vector)


def _exact(violations):
    """Each violation field by field, with the type of every number."""
    return [(v.kind, v.index, v.label, type(v.lhs), v.lhs, v.rel, type(v.rhs), v.rhs)
            for v in violations]


def _assert_checks_match_reference(program, point, dual):
    got = (check_feasible(program, point), check_dual_feasible(program, dual))
    want = (reference_lp.check_feasible(program, point), reference_lp.check_dual_feasible(program, dual))
    assert [_exact(v) for v in got] == [_exact(v) for v in want]
    for got, want in (
        (program.objective_value(point), reference_lp.objective_value(program, point)),
        (dual_objective(program, dual), reference_lp.dual_objective(program, dual)),
    ):
        assert (type(got), got) == (type(want), want)


NONZERO_RATIONALS = SMALL_RATIONALS.filter(bool)


@settings(max_examples=300, deadline=None)
@given(small_programs(), st.data())
def test_integer_checks_match_fraction_reference(program, data):
    """The integer-row checks give the Fraction checks' values and violations.

    Points and duals are random (possibly empty, with zeros, plain ints and
    a name the program does not declare), all zero, the solver's own point
    and dual or Farkas vector, and those with one entry moved.
    """
    names, m = list(program.variables), len(program.rows)
    values = st.one_of(SMALL_RATIONALS, st.integers(-3, 3))
    cases = [
        (data.draw(st.dictionaries(st.sampled_from(names + ["undeclared"]), values)),
         data.draw(st.lists(values, min_size=m, max_size=m))),
        ({}, [0] * m),
    ]
    sol = solve(program)
    point, dual = dict(sol.primal), list(sol.dual) or cases[0][1]
    if sol.status == "infeasible":
        dual = [sol.certificate["vector"].get(i, F(0)) for i in range(m)]
    v, i = data.draw(st.sampled_from(names)), data.draw(st.integers(0, m - 1))
    moved, moved_dual = dict(point), list(dual)
    moved[v] = moved.get(v, 0) + data.draw(NONZERO_RATIONALS)
    moved_dual[i] += data.draw(NONZERO_RATIONALS)
    cases += [(point, dual), (moved, moved_dual)]
    for point, dual in cases:
        _assert_checks_match_reference(program, point, dual)


def _corpus_programs():
    """The chain programs on five 4x4 tables and the qprt programs on four functions."""
    eps = F(1, 8)
    for family in ("eq", "gt", "and", "xor", "disj"):
        f = families.make_function(family, 2, "cc")
        yield from (build_prt_lp(f, eps), build_rprt_lp(f, eps))
        yield from (build_srec_lp(SrecInstance(f, z, eps, eps)) for z in (0, 1))
    for family, n in (("and", 4), ("maj", 5), ("xor", 4), ("maj", 4)):
        yield build_qprt_lp(families.make_function(family, n, "qc"), eps)


def test_corpus_checks_match_fraction_reference():
    """Every corpus solution certifies; the integer-row checks agree with the
    Fraction ones on it and on it with one primal and one dual entry moved."""
    programs = list(_corpus_programs())
    assert len(programs) == 24
    for program in programs:
        sol = solve(program)
        assert certify(program, sol) == []
        _assert_checks_match_reference(program, sol.primal, sol.dual)
        v = program.variables[0]
        moved = {**sol.primal, v: sol.primal.get(v, 0) + F(1, 7)}
        # raises the column sums on row 0 past a tight column
        moved_dual = (sol.dual[0] + F(1, 3),) + sol.dual[1:]
        assert check_feasible(program, moved) and check_dual_feasible(program, moved_dual)
        _assert_checks_match_reference(program, moved, moved_dual)


@settings(max_examples=300, deadline=None)
@given(small_program_args())
def test_integer_form_matches_the_reference_rows(args):
    """Each row, and the objective, is the reference scaling of its rational row."""
    _, names, objective, rows = args
    program = from_constraints(*args)
    assert reference_lp.integer_form(program) == reference_lp.reference_form(names, objective, rows)


def test_corpus_integer_form_matches_the_reference_rows():
    """The builders emit the rows the Fraction builders made, scaled as the reference scales them."""
    eps, count = F(1, 8), 0
    for family in ("eq", "gt", "and", "xor", "disj"):
        f = families.make_function(family, 2, "cc")
        pairs = [(build_prt_lp(f, eps), reference_lp.partition_parts(_rect_family(f), eps, False)),
                 (build_rprt_lp(f, eps), reference_lp.partition_parts(_rect_family(f), eps, True))]
        for z in (0, 1):
            inst = SrecInstance(f, z, eps, eps)
            pairs.append((build_srec_lp(inst), reference_lp.srec_parts(inst)))
        for program, parts in pairs:
            assert reference_lp.integer_form(program) == reference_lp.reference_form(*parts)
            count += 1
    for family, n in (("and", 4), ("maj", 5), ("xor", 4), ("maj", 4)):
        g = families.make_function(family, n, "qc")
        parts = reference_lp.partition_parts(_cube_family(g), eps, False)
        assert reference_lp.integer_form(build_qprt_lp(g, eps)) == reference_lp.reference_form(*parts)
        count += 1
    assert count == len(list(_corpus_programs()))


def _highs(program, linprog):
    """``program`` solved by HiGHS in floating point, as (status, value).

    Presolve is off: it has called a feasible program infeasible.
    """
    names, cost = program.variables, reference_lp.objective(program)
    ub, eq = ([], []), ([], [])
    for con in reference_lp.rational_rows(program):
        row = [float(con.coeffs.get(v, 0)) for v in names]
        flip = -1 if con.rel == ">=" else 1
        target = eq if con.rel == "=" else ub
        target[0].append([flip * a for a in row])
        target[1].append(flip * float(con.rhs))
    res = linprog(
        [float(cost.get(v, 0)) for v in names],
        A_ub=ub[0] or None, b_ub=ub[1] or None, A_eq=eq[0] or None, b_eq=eq[1] or None,
        bounds=[(0, None)] * len(names),
        method="highs",
        options={"presolve": False},
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    return status, None if status != "optimal" else res.fun


@settings(max_examples=300, deadline=None)
@given(small_programs())
def test_exact_solver_matches_highs(program):
    """Status and optimal value agree with HiGHS, an independent float solver.

    A program on which HiGHS reaches no verdict (status 4, an unknown
    model status or a solve error; about one in 9000 of these) is
    discarded.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    status, value = _highs(program, linprog)
    assume(status is not None)
    sol = solve(program)
    assert sol.status == status
    if status == "optimal":
        assert math.isclose(sol.value, value, rel_tol=1e-9, abs_tol=1e-9)


# Differential test against exact vertex enumeration.


@st.composite
def nonneg_programs(draw):
    """Random programs over at most 3 nonnegative variables and 4 rows.

    Half of the right-hand sides are zero and a row may repeat an earlier
    one, so degenerate vertices (more tight rows than variables) are common.
    Costs are >= 0.
    """
    names = [f"x{j}" for j in range(draw(st.integers(1, 3)))]
    rows: list[Constraint] = []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
            continue
        rhs = draw(st.sampled_from([F(0), draw(SMALL_RATIONALS)]))
        rel = draw(st.sampled_from(["<=", "=", ">="]))
        rows.append(Constraint({v: draw(SMALL_RATIONALS) for v in names}, rel, rhs))
    objective = {v: draw(COSTS) for v in names}
    return from_constraints("vertex", tuple(names), objective, tuple(rows))


def _vertices(rows, k):
    """Every vertex of {x in Q^k : x >= 0 and every (a, rel, b) row holds}.

    A vertex is a feasible point where k linearly independent rows or
    bounds x_j >= 0 are tight, so each k-subset of them is solved as a
    system of equations by Gauss-Jordan elimination.
    """
    planes = [(a, b) for a, _, b in rows] + [
        (tuple(F(int(i == j)) for i in range(k)), F(0)) for j in range(k)
    ]
    holds = {"<=": lambda l, r: l <= r, "=": lambda l, r: l == r, ">=": lambda l, r: l >= r}
    out = set()
    for chosen in itertools.combinations(planes, k):
        m = [list(a) + [b] for a, b in chosen]
        for col in range(k):
            pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
            if pivot is None:
                break
            m[col], m[pivot] = m[pivot], m[col]
            m[col] = [v / m[col][col] for v in m[col]]
            for r in range(k):
                if r != col and m[r][col] != 0:
                    m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[col])]
        else:
            x = tuple(row[k] for row in m)
            if all(v >= 0 for v in x) and all(
                holds[rel](_dot(a, x), b) for a, rel, b in rows
            ):
                out.add(x)
    return out


def _by_vertex_enumeration(program):
    """(status, optimal value) of a program over nonnegative variables.

    The feasible region is pointed, so it is empty iff it has no vertex.
    The program is unbounded iff some extreme ray improves the objective;
    extreme rays are the vertices of the recession cone cut by sum(d) = 1.
    Otherwise the optimum is attained at a vertex.
    """
    names, k = program.variables, len(program.variables)
    cost = reference_lp.objective(program)
    c = [cost.get(v, F(0)) for v in names]
    rows = [(tuple(con.coeffs.get(v, F(0)) for v in names), con.rel, con.rhs)
            for con in reference_lp.rational_rows(program)]
    points = _vertices(rows, k)
    if not points:
        return "infeasible", None
    cone = [(a, rel, F(0)) for a, rel, _ in rows] + [((F(1),) * k, "=", F(1))]
    if any(_dot(c, d) < 0 for d in _vertices(cone, k)):
        return "unbounded", None
    return "optimal", min(_dot(c, x) for x in points)


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


@settings(max_examples=400, deadline=None)
@given(nonneg_programs())
def test_exact_solver_matches_vertex_enumeration(program):
    status, value = _by_vertex_enumeration(program)
    sol = solve(program)
    assert sol.status == status
    assert sol.value == value
