import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction as F

import pytest
import reference_lp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_lp import Constraint, from_constraints, reference_solve

from lpbounds import ccbounds, families, qcbounds
from lpbounds import lp as lpmod
from lpbounds.ccbounds import SrecInstance, _rect_family, build_prt_lp, build_rprt_lp, build_srec_lp
from lpbounds.errors import InfeasibleConstructionError, LpboundsError
from lpbounds.lp import (
    LinearProgram,
    Row,
    check_dual_feasible,
    check_feasible,
    dual_objective,
    certify,
    set_cache_dir,
    solve,
)
from lpbounds.model import ProductDistribution2P, QueryFunction, Subcube, TwoPartyFunction, enumerate_rectangles
from lpbounds.qcbounds import _cube_family, build_qprt_lp
from lpbounds.rational import format_rational, parse_rational
from lpbounds.records import replace


def lp_min(variables, objective, constraints):
    return from_constraints(tuple(variables), objective, tuple(constraints))


INFEASIBLE = "infeasible LP: an artificial stays positive after {} phase-1 pivots"


def checked_solve(program, run=solve):
    """``run(program)`` held to ``reference_solve``: the solution, or the reference's ``Infeasible`` verdict.

    ``run`` solves ``program`` and returns the ``LPSolution``: ``solve``, or
    ``solve`` under an audit.  Where the reference finds an optimum, the
    two must be byte-equal.  Where it finds no feasible point, its Farkas
    vector must pass its own row-by-row check and ``run`` must raise
    ``InfeasibleConstructionError`` with the one line that names the
    reference's phase-1 pricing passes.
    """
    want = reference_solve(program)
    if isinstance(want, reference_lp.Infeasible):
        assert reference_lp.check_farkas(program, want.farkas)
        with pytest.raises(InfeasibleConstructionError) as exc:
            run(program)
        assert str(exc.value) == INFEASIBLE.format(want.iterations)
        return want
    got = run(program)
    assert got.canonical_bytes() == want.canonical_bytes()
    return got


def solve_or_refusal(program):
    """``solve(program)``, or the message of the ``InfeasibleConstructionError`` it raises."""
    try:
        return solve(program)
    except InfeasibleConstructionError as exc:
        return str(exc)


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
    "columns out of order": Row(1, (1, 0), (1, 1), ">=", 1, "r"),
    "a repeated column": Row(1, (0, 0), (1, 1), ">=", 1, "r"),
    "a column out of range": Row(1, (0, 2), (1, 1), ">=", 1, "r"),
}


@pytest.mark.parametrize("row", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_malformed_row_is_a_typed_error(row):
    """A program with such a row, or such an objective, is refused when it is built.

    min x subject to ``Row(0, (0,), (1,), ">=", 1, "r")`` used to divide by
    zero in the solver, and the same row with s = -1 to end as a solver bug.
    """
    cost = Row(1, (0,), (1,), "=", 0, "objective")
    with pytest.raises(LpboundsError, match="'r'"):
        LinearProgram(("x", "y"), cost, (row,))
    with pytest.raises(LpboundsError, match="'r'"):
        LinearProgram(("x", "y"), row, ())


def test_a_repeated_name_or_an_unknown_relation_is_a_typed_error():
    cost = Row(1, (0,), (1,), "=", 0, "objective")
    with pytest.raises(LpboundsError, match="duplicate variable names"):
        LinearProgram(("x", "x"), cost, ())
    with pytest.raises(LpboundsError, match="unknown relation '>'"):
        LinearProgram(("x",), cost, (Row(1, (0,), (1,), ">", 1, "r"),))


def test_repeated_names_are_refused_on_every_build():
    """The duplicate check is not skipped for a tuple that has been refused, or built, before."""
    cost = Row(1, (0,), (1,), "=", 0, "objective")
    names = ("x", "y", "x")
    for _ in range(3):
        with pytest.raises(LpboundsError, match="duplicate variable names"):
            LinearProgram(names, cost, ())
    with pytest.raises(LpboundsError, match="duplicate variable names"):
        lpmod.Names(names)
    plain = ("x", "y")
    program = LinearProgram(plain, cost, ())
    assert type(program.variables) is lpmod.Names and program.variables == plain
    assert LinearProgram(program.variables, cost, ()).variables is program.variables


def test_builds_of_one_shape_share_one_checked_names_tuple():
    """The shape caches hand out one ``Names`` per shape, whose key header is the JSON of the names."""
    eps, mu = F(1, 8), ProductDistribution2P.uniform(4, 4)
    eq, gt = families.eq(2), families.gt(2)
    for programs in ([build_prt_lp(eq, eps), build_rprt_lp(gt, F(0)), build_prt_lp(gt, F(1, 4))],
                     [build_srec_lp(SrecInstance(eq, 0, eps, eps)), build_srec_lp(SrecInstance(gt, 1, eps, F(0), mu))],
                     [build_qprt_lp(families.maj_q(3), eps), build_qprt_lp(families.and_q(3), F(0))]):
        names = programs[0].variables
        assert type(names) is lpmod.Names and all(p.variables is names for p in programs)
        assert names.header == f"min\n{json.dumps(list(names))}\n[]\n".encode()
        assert all(lpmod._program_key(p) == reference_lp.program_key(p) for p in programs)


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
        lp.variables,
        {v: F(3, 2) * c for v, c in reference_lp.objective(lp).items()},
        reference_lp.rational_rows(lp),
    )
    sol2 = solve(scaled)
    assert sol2.value == F(3, 2) * sol.value
    assert sol2.primal == sol.primal
    assert sol2.iterations == sol.iterations


def test_infeasible_with_farkas_certificate():
    """x >= 3 and x <= 1: ``solve`` raises, and the reference's Farkas vector certifies that no x fits."""
    lp = lp_min(
        ["x"],
        {"x": F(1)},
        [Constraint({"x": F(1)}, ">=", F(3)), Constraint({"x": F(1)}, "<=", F(1))],
    )
    assert isinstance(checked_solve(lp), reference_lp.Infeasible)


def test_negative_rhs_rows_are_handled():
    # x >= -5 is inactive; optimum at x = 0
    lp = lp_min(["x"], {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(-5))])
    assert solve(lp).value == 0


def test_undeclared_variable_rejected():
    with pytest.raises(Exception):
        lp_min(["x"], {"x": F(1)}, [Constraint({"z": F(1)}, ">=", F(1))])


def test_certify_lists_every_failure():
    optimal = solve(cached_program())
    assert certify(cached_program(), optimal) == []
    failures = certify(cached_program(), replace(optimal, value=F(0)))
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
    "deeply nested json": lambda rec: b"[" * 100000 + b"]" * 100000,
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


def _one_part_edits(rec):
    """The record with one part changed, by name: each primal value raised by 1/7,
    each nonzero dual negated, and the value raised by 1."""
    edits = {f"primal {v}": {**rec, "primal": {**rec["primal"], v: format_rational(parse_rational(x) + F(1, 7))}}
             for v, x in rec["primal"].items()}
    for i, y in enumerate(rec["dual"]):
        if y != "0":
            edits[f"dual {i}"] = {**rec, "dual": [*rec["dual"][:i], format_rational(-parse_rational(y)),
                                                  *rec["dual"][i + 1:]]}
    edits["value"] = {**rec, "value": format_rational(parse_rational(rec["value"]) + 1)}
    return edits


TAMPERED_PROGRAMS = {
    "two rows": cached_program,
    "srec eq2 under the uniform measure": lambda: build_srec_lp(
        SrecInstance(families.eq(2), 1, F(0), F(1, 2**20), ProductDistribution2P.uniform(4, 4))),
    "qprt maj3": lambda: build_qprt_lp(families.maj_q(3), F(1, 8)),
}


@pytest.mark.parametrize("build", TAMPERED_PROGRAMS.values(), ids=TAMPERED_PROGRAMS.keys())
def test_an_entry_tampered_in_any_one_part_is_a_miss(cache_dir, build):
    """A hit is certified on every load: one program solved again after each
    one-part edit of its entry gets the fresh solution and rewrites the entry."""
    program = build()
    fresh = solve(program)
    (entry,) = cache_dir.glob("*.json")
    edits = _one_part_edits(fresh.to_record())
    assert len(edits) == len(fresh.primal) + sum(1 for y in fresh.dual if y) + 1
    for name, rec in edits.items():
        entry.write_text(json.dumps(rec))
        assert solve(program).canonical_bytes() == fresh.canonical_bytes(), name
        assert json.loads(entry.read_text()) == fresh.to_record(), name


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


def test_an_infeasible_solve_is_not_cached(cache_dir):
    program = lp_min(["x"], {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(3)), Constraint({"x": F(1)}, "<=", F(1))])
    with pytest.raises(InfeasibleConstructionError, match=f"^{INFEASIBLE.format(2)}$"):
        solve(program)
    assert list(cache_dir.iterdir()) == []


def test_solve_refuses_a_result_that_fails_certify(cache_dir, monkeypatch):
    """A simplex result with a wrong value is a solver bug, and nothing is cached."""
    run = lpmod._Simplex.run
    monkeypatch.setattr(lpmod._Simplex, "run", lambda sx: replace(run(sx), value=F(7)))
    with pytest.raises(LpboundsError, match="; solver bug$"):
        solve(cached_program())
    assert list(cache_dir.iterdir()) == []


def test_cache_store_removes_its_temp_file_when_the_write_fails(cache_dir, monkeypatch):
    """A write that fails halfway leaves no entry and no temp file, and its error propagates."""
    def half_written(record, fh, **kwargs):
        fh.write("{")
        raise OSError("no space left")

    monkeypatch.setattr(lpmod.json, "dump", half_written)
    with pytest.raises(OSError, match="no space left"):
        solve(cached_program())
    assert list(cache_dir.iterdir()) == []


@pytest.mark.parametrize("dual", [(), (F(1),), (F(1), F(0), F(0))], ids=["empty", "short", "long"])
def test_check_dual_feasible_refuses_a_dual_of_another_length(dual):
    with pytest.raises(LpboundsError, match="^dual vector length does not match constraint count$"):
        check_dual_feasible(cached_program(), dual)


def test_the_pivot_cap_is_a_typed_error(monkeypatch):
    """A run that would pass ``MAX_PIVOTS`` pricing passes stops with an error; one at the cap finishes."""
    program = cached_program()
    sol = lpmod._Simplex(program).run()
    monkeypatch.setattr(lpmod, "MAX_PIVOTS", sol.iterations)
    assert lpmod._Simplex(program).run().canonical_bytes() == sol.canonical_bytes()
    monkeypatch.setattr(lpmod, "MAX_PIVOTS", sol.iterations - 1)
    with pytest.raises(LpboundsError, match="pivot cap exceeded"):
        lpmod._Simplex(program).run()


# min -x subject to x - y <= 2 over x, y >= 0 improves without bound along x = y
NEGATIVE_COST = lp_min(["x", "y"], {"x": F(-1), "y": F(0)}, [Constraint({"x": F(1), "y": F(-1)}, "<=", F(2))])


def test_solve_refuses_a_negative_cost(cache_dir):
    """A negative cost is refused, naming its column, before the program is keyed; 0 is taken."""
    with pytest.raises(LpboundsError, match="'x'"):
        solve(NEGATIVE_COST)
    assert list(cache_dir.iterdir()) == []
    zero = replace(NEGATIVE_COST, cost=Row(1, (), (), "=", 0, "objective"))
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
    program = from_constraints(variables, objective, rows)
    return lpmod._program_key(program)


def test_program_key_is_canonical():
    """Dict order, ints for whole Fractions, zero coefficients and row labels
    leave the key alone; any one change to the program alters it."""
    key = _key()
    respelled = from_constraints(
        ("x", "y", "z"), {"y": F(2, 4), "x": 1, "z": 0},
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


BIG = 2**70


@st.composite
def keyed_programs(draw):
    """Programs in integer form with every kind of row the key encodes.

    A row, the objective included, may have all-equal coefficients of
    either sign, mixed signs, one column or none; scales, coefficients and
    right-hand sides reach past 64 bits.  Names are plain or any text,
    quotes, backslashes, control and non-ASCII characters included.
    """
    n = draw(st.integers(1, 8))
    names = draw(st.one_of(st.just([f"x{j}" for j in range(n)]),
                           st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True)))

    def row(label):
        cols = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
        if draw(st.booleans()):
            coeffs = (draw(st.integers(-9, 9).filter(bool)),) * len(cols)
        else:
            coeffs = tuple(draw(st.integers(-BIG, BIG).filter(bool)) for _ in cols)
        rel = draw(st.sampled_from(["<=", "=", ">="]))
        return Row(draw(st.integers(1, BIG)), cols, coeffs, rel, draw(st.integers(-BIG, BIG)), label)

    rows = tuple(row(f"r{i}") for i in range(draw(st.integers(0, 5))))
    return LinearProgram(tuple(names), row("objective"), rows)


KEY_EXAMPLES = {
    "all-equal": LinearProgram(("x", "y", "z"), Row(1, (0, 1, 2), (1, 1, 1), "=", 0, "objective"),
                               (Row(8, (0, 2), (8, 8), "<=", 7, "cap"), Row(3, (1, 2), (-5, -5), ">=", -2, "c"))),
    "mixed signs": LinearProgram(("x", "y"), Row(2, (0, 1), (1, 3), "=", 0, "objective"),
                                 (Row(6, (0, 1), (-4, 4), "=", 1, "m"), Row(1, (0, 1), (2**70, -1), "<=", 0, "w"))),
    "single column": LinearProgram(("x", "y"), Row(1, (1,), (2,), "=", 0, "objective"),
                                   (Row(1, (0,), (-3,), ">=", -6, "s"),)),
    "empty cost row": LinearProgram(("x",), Row(1, (), (), "=", 0, "objective"),
                                    (Row(1, (0,), (1,), ">=", 1, "r"), Row(1, (), (), "<=", 0, "empty"))),
}


@settings(max_examples=300, deadline=None)
@given(keyed_programs())
@example(KEY_EXAMPLES["all-equal"])
@example(KEY_EXAMPLES["mixed signs"])
@example(KEY_EXAMPLES["single column"])
@example(KEY_EXAMPLES["empty cost row"])
def test_program_key_matches_the_reference_encoder(program):
    """The key of rows that encode their own bytes is the one-loop encoder's, byte for byte."""
    assert lpmod._program_key(program) == reference_lp.program_key(program)


def test_corpus_program_keys_match_the_reference_encoder():
    """The same on every corpus build and on the averaged srec covering row, built twice:
    rows a second build shares keep the key bytes the first one encoded."""
    mu = ProductDistribution2P.uniform(4, 4)
    for build in (lambda: list(_corpus_programs()),
                  lambda: [build_srec_lp(SrecInstance(f, z, F(1, 8), F(1, 2**20), mu))
                           for f in (families.eq(2), families.gt(2)) for z in (0, 1)]):
        first, again = build(), build()
        for a, b in zip(first, again):
            assert lpmod._program_key(a) == lpmod._program_key(b) == reference_lp.program_key(b)


# Differential tests against the Fraction simplex the integer core replaced.

SMALL_RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
# every cost is >= 0, as ``solve`` requires; rows and right-hand sides keep both signs
COSTS = st.builds(F, st.integers(0, 4), st.integers(1, 6))


@st.composite
def small_program_args(draw):
    """The arguments of ``reference_lp.from_constraints`` for ``small_programs``."""
    return _small_program_args(draw, SMALL_RATIONALS)


def small_programs():
    return small_program_args().map(lambda args: from_constraints(*args))


def _small_program_args(draw, entries):
    """Random programs with up to 4 variables and 5 rows, their coefficients and rhs from ``entries``.

    Fractional coefficients and negative right-hand sides are common, and
    all three relations occur; costs are >= 0.  An optional last
    ``=`` row is a combination of two earlier rows, which leaves the system
    linearly dependent.
    """
    names = [f"x{j}" for j in range(draw(st.integers(1, 4)))]
    rows = [
        Constraint(
            {v: draw(entries) for v in names},
            draw(st.sampled_from(["<=", "=", ">="])),
            draw(entries),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(SMALL_RATIONALS)
        coeffs = {v: a.coeffs.get(v, F(0)) + k * b.coeffs.get(v, F(0)) for v in names}
        rows.append(Constraint(coeffs, "=", a.rhs + k * b.rhs))
    return tuple(names), {v: draw(COSTS) for v in names}, tuple(rows)


# both rows start on artificials at level 0 and phase 1 makes no pivot; the
# first can only be driven out by a pivot on -1, the second is dependent
NEGATIVE_DRIVE_OUT = from_constraints(
    ("x0", "x1"), {"x0": F(1), "x1": F(2)},
    (Constraint({"x0": F(-1), "x1": F(-1)}, "=", F(0)), Constraint({"x0": F(-2), "x1": F(-2)}, "=", F(0))),
)


# x0 enters on row 1 first, at ratio 0 / 2: a degenerate pivot on p = 2 != D = 1 leaves x
# at xd = 1, and the next pivot is nondegenerate, so it rewrites x from that stale xd
STALE_X = from_constraints(
    ("x0",), {"x0": F(1)}, (Constraint({"x0": F(1)}, ">=", F(1)), Constraint({"x0": F(2)}, ">=", F(0))))


# a, b and c each cost 1 and cover three rows whose diagonal is near 3^40: D and
# the entries of N outgrow 64-bit slots
THREE_TO_THE_40 = from_constraints(
    ("a", "b", "c"), {"a": F(1), "b": F(1), "c": F(1)},
    (Constraint({"a": F(3**40), "b": F(1), "c": F(2)}, ">=", F(1)),
     Constraint({"a": F(1), "b": F(3**40 + 1), "c": F(3)}, ">=", F(1)),
     Constraint({"a": F(5), "b": F(7), "c": F(2 * 3**40 + 1)}, ">=", F(1))),
)


# every row has one coefficient: -2 with a negative rhs, so the simplex flips it; 2
# over the scale 6 and 4 over the scale 4, which it divides by g = 2 and g = 4
UNIT_ROWS = from_constraints(
    ("x0", "x1", "x2"), {"x0": F(1), "x1": F(2), "x2": F(1)},
    (Constraint({"x0": F(-2), "x1": F(-2)}, "<=", F(-3)), Constraint({"x1": F(1, 3), "x2": F(1, 3)}, ">=", F(1, 2)),
     Constraint({"x0": F(1), "x2": F(1)}, "=", F(5, 4))),
)


@settings(max_examples=400, deadline=None)
@given(small_programs())
@example(NEGATIVE_DRIVE_OUT)
@example(UNIT_ROWS)
def test_integer_core_matches_fraction_reference(program):
    """Byte-equal solutions, certificate included, and the same infeasible programs."""
    checked_solve(program)


def _offset_cols(sx, ints, sign):
    """``ints`` with N's offset added (sign 1) or taken off (sign -1).

    ``sx.cols`` holds each column of N as its plain packed int plus
    ``sx.off``; the tests read and write plain packed ints through this.
    """
    return [c + sign * sx.off for c in ints]


def _rows_of_n(sx):
    """Every row of N, unpacked from its columns ``sx.cols``, which are all held at the current D."""
    columns = [lpmod._unpack([c], sx.m, sx.w, sx.off) for c in _offset_cols(sx, sx.cols, -1)]
    return [list(row) for row in zip(*columns)]


def _pack(values, w):
    """``values`` packed in one int of w-bit slots, as ``_Simplex`` packs N's columns; 0 for no values."""
    n = len(values) or 1
    return (lpmod._blocks(values, n, w, lpmod._offset(n, w)) or [0])[0]


def _layout_dot(sx, vec, j):
    """a_j . vec, read through column j's layout as ``_column`` reads it."""
    rows, values = sx._layout(j)
    return sum(v * vec[r] for r, v in zip(rows, values))


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


def _assert_basis_identity(sx, basis=None):
    """N * a_basis[k] = D * e_k for every basic column, and x = N * b at x's own determinant xd > 0.

    ``basis`` defaults to ``sx.basis``.  Every column of N is held at the
    current D, so a column at any other determinant fails the identity.
    x * D = xd * N * b is compared cross-multiplied, with no division.
    """
    rows, rhs = _rows_of_n(sx), _integer_rhs(sx)
    for k, j in enumerate(sx.basis if basis is None else basis):
        assert [_layout_dot(sx, row, j) for row in rows] == [
            sx.d * (i == k) for i in range(sx.m)]
    assert sx.xd > 0
    assert [a * sx.d for a in sx.x] == [sx.xd * sum(a * b for a, b in zip(row, rhs)) for row in rows]


def test_drive_out_pivots_on_a_negative_element(monkeypatch):
    """The drive-out pivots NEGATIVE_DRIVE_OUT on -1 and then negates D and every column with it.

    The pivot writes every column at D = -1; the drive-out leaves D = 1
    and each column negated, so N / D and the basis identity hold.
    """
    sx = lpmod._Simplex(NEGATIVE_DRIVE_OUT)
    sx._iterate(sx.cost1, sx.n_total)
    pivots = []
    pivot = lpmod._Simplex._pivot

    def record_pivot(s, l, u, packed):
        out = pivot(s, l, u, packed)
        pivots.append((u[l], s.d, list(s.cols)))
        return out

    monkeypatch.setattr(lpmod._Simplex, "_pivot", record_pivot)
    sx._drive_out_artificials()
    [(p, d, cols)] = pivots
    assert (p, d, sx.d) == (-1, -1, 1)
    assert _offset_cols(sx, sx.cols, -1) == [-c for c in _offset_cols(sx, cols, -1)]
    assert _rows_of_n(sx) == [[-1, 0], [-2, 1]]
    _assert_basis_identity(sx)
    sol = solve(NEGATIVE_DRIVE_OUT)
    assert sol.canonical_bytes() == reference_solve(NEGATIVE_DRIVE_OUT).canonical_bytes()


def test_a_re_measure_brings_negated_columns_back_to_d():
    """After the drive-out on NEGATIVE_DRIVE_OUT every column, negated with D, is already at D.

    ``_measure`` reads max |N_ik| = 2, a power of two, from the columns as
    they are and leaves them with their signs; ``_measure_exactly`` reads
    2 too.
    """
    sx = lpmod._Simplex(NEGATIVE_DRIVE_OUT)
    sx._iterate(sx.cost1, sx.n_total)
    sx._drive_out_artificials()
    assert sx.d == 1
    cols, rows = list(sx.cols), _rows_of_n(sx)
    assert rows == [[-1, 0], [-2, 1]]
    assert sx._measure() == 2
    assert (sx.cols, _rows_of_n(sx)) == (cols, rows)
    assert sx._measure_exactly() == 2
    assert sx.cols == cols


def _audited_solve(program):
    """``solve`` with the basis identity checked before and after every pivot.

    After a pivot the identity is checked on the basis with the column
    just read entering at row l; before the next one and at the end of the
    run it is checked again, after the drive-out negation and the basis
    update.  A p = D pivot must leave every column it does not touch
    bit-identical (after a widening, equal to its repacked self).  Every
    column read is compared with N * a_j on the rows of N, and the bound M
    is checked against them before and after every pivot.  Every bound
    read of M must return a power of two B with
    max |N_ik| <= B <= max(1, 2 max |N_ik|), every exact read max |N_ik|
    itself, and both must leave the columns as they were.  Returns the
    solution and the counts of p = D pivots, p = D pivots where two touched
    columns share N_lk (one step serves both), p != D pivots, bound reads
    and exact reads of M, widenings of N's slots (one repack each, however
    many doublings it takes) and doublings of the pricing slots, with the
    widths w and pw the run ended at.
    """
    counts = dict.fromkeys(("p = D", "p = D sharing N_lk", "p != D", "bound reads", "exact reads",
                            "widenings", "price widenings"), 0)
    pivot, column, run = lpmod._Simplex._pivot, lpmod._Simplex._column, lpmod._Simplex.run
    measure, measure_exactly = lpmod._Simplex._measure, lpmod._Simplex._measure_exactly
    fit, fit_prices = lpmod._Simplex._fit, lpmod._Simplex._fit_prices
    entering = []

    def audit_column(sx, j):
        entering[:] = [j]
        u, packed = column(sx, j)
        assert u == [_layout_dot(sx, row, j) for row in _rows_of_n(sx)]
        return u, packed

    def audit_pivot(sx, l, u, packed):
        _assert_basis_identity(sx)
        rows = _rows_of_n(sx)
        assert all(abs(a) <= sx.bound < sx.room for row in rows for a in row)
        assert packed == _pack(u, sx.w)  # the direction ``_column`` packed is u
        d, w, cols = sx.d, sx.w, _offset_cols(sx, sx.cols, -1)
        if u[l] == d:
            counts["p = D"] += 1
            shared = [a for a in rows[l] if a]
            counts["p = D sharing N_lk"] += len(set(shared)) < len(shared)
        else:
            counts["p != D"] += 1
        row, touched = pivot(sx, l, u, packed)
        basis = list(sx.basis)
        basis[l] = entering[0]
        _assert_basis_identity(sx, basis)
        assert sx.d == u[l]
        assert all(abs(a) <= sx.bound < sx.room for row_i in _rows_of_n(sx) for a in row_i)
        if u[l] == d:
            if sx.w != w:
                cols = lpmod._repack(cols, sx.m, w, lpmod._offset(sx.m, w), sx.w)
            new = _offset_cols(sx, sx.cols, -1)
            assert all(new[k] == cols[k] for k in range(sx.m) if k not in touched)
        return row, touched

    def audited_read(read, name):
        def audit(sx):
            counts[name] += 1
            cols, rows = list(sx.cols), _rows_of_n(sx)
            top = max((abs(a) for row in rows for a in row), default=0)
            got = read(sx)
            if read is measure:
                assert got & (got - 1) == 0 and top <= got <= max(1, 2 * top), (got, top)
            else:
                assert got == top
            assert sx.cols == cols  # a read leaves every column as it was
            return got
        return audit

    def audit_fit(sx, need):
        w = sx.w
        fit(sx, need)
        counts["widenings"] += sx.w != w

    def audit_fit_prices(sx, need):
        w = sx.pw
        fit_prices(sx, need)
        assert need < 1 << (sx.pw - 2)
        counts["price widenings"] += sx.pw.bit_length() - w.bit_length()

    def audit_run(sx):
        try:
            sol = run(sx)
        except InfeasibleConstructionError:
            _assert_basis_identity(sx)  # phase 1 ended at a basis too
            raise
        _assert_basis_identity(sx)
        counts["w"], counts["pw"] = sx.w, sx.pw
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_column", audit_column)
        mp.setattr(lpmod._Simplex, "_pivot", audit_pivot)
        mp.setattr(lpmod._Simplex, "_measure", audited_read(measure, "bound reads"))
        mp.setattr(lpmod._Simplex, "_measure_exactly", audited_read(measure_exactly, "exact reads"))
        mp.setattr(lpmod._Simplex, "_fit", audit_fit)
        mp.setattr(lpmod._Simplex, "_fit_prices", audit_fit_prices)
        mp.setattr(lpmod._Simplex, "run", audit_run)
        sol = solve(program)
    return sol, counts


@settings(max_examples=200, deadline=None)
@given(small_programs())
@example(NEGATIVE_DRIVE_OUT)
@example(STALE_X)
def test_every_pivot_keeps_the_basis_identity(program):
    checked_solve(program, lambda p: _audited_solve(p)[0])


def test_every_pivot_keeps_the_basis_identity_on_a_corpus_program():
    program = build_qprt_lp(families.make_function("maj", 4, "qc"), F(1, 8))
    sol, counts = _audited_solve(program)
    assert sol.status == "optimal"
    assert all(counts[k] for k in ("p = D", "p = D sharing N_lk", "p != D")), counts
    # (bound reads, exact reads) of M: in 16-bit slots the loose pivot bound reads a power of
    # two once on maj4 and needs no exact read; the wide program widens twice, each time on
    # an exact read
    wide, wide_counts = _audited_solve(THREE_TO_THE_40)
    assert wide.status == "optimal"
    assert [(c["bound reads"], c["exact reads"]) for c in (counts, wide_counts)] == [(1, 0), (2, 2)]


EQ2 = families.make_function("eq", 2, "cc")


@st.composite
def packed_columns(draw):
    """(w, columns): columns of N in w-bit slots.

    Entries are zeros, the widest the bound admits, +-(2^(w-2) - 1), and
    anything between.
    """
    w = draw(st.sampled_from([16, 32, 64]))
    top = (1 << (w - 2)) - 1
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.sampled_from([top, -top, 1, -1]), st.integers(-top, top),
                      st.integers(-64, 64))
    return w, draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))


@settings(max_examples=300, deadline=None)
@given(packed_columns())
@example((16, [[0, 0], [0, 0]]))
@example((16, [[(1 << 14) - 1, 0], [0, -(1 << 14) + 1]]))
@example((64, [[-(1 << 62) + 1]]))
def test_the_bound_read_is_a_power_of_two_within_twice_the_largest_entry(case):
    """``_measure`` returns a power of two B, max |N_ik| <= B <= max(1, 2 max |N_ik|).

    ``_measure_exactly`` reads max |N_ik| itself; both leave the columns
    as they are.
    """
    w, columns = case
    m = len(columns)
    sx = lpmod._Simplex(from_constraints(("x",), {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))] * m))
    sx._set_width(w)
    sx.cols = _offset_cols(sx, [_pack(column, w) for column in columns], 1)
    packed = list(sx.cols)
    assert _rows_of_n(sx) == [list(row) for row in zip(*columns)]
    top = max(abs(a) for column in columns for a in column)
    got = sx._measure()
    assert got & (got - 1) == 0 and top <= got <= max(1, 2 * top), (got, top)
    assert sx._measure_exactly() == top
    assert sx.cols == packed


def test_a_bound_read_that_fails_the_check_is_read_exactly_before_any_widening(monkeypatch):
    """Largest entry 2^13 + 1 in 16-bit slots: its power of two, 2^14, reaches the room; it does not.

    ``_fit`` with need(M) = M reads M exactly once and keeps the slots.
    """
    sx = lpmod._Simplex(from_constraints(("x",), {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))] * 2))
    big = (1 << 13) + 1
    sx.cols = _offset_cols(sx, [_pack(column, sx.w) for column in ([big, -1], [0, 1])], 1)
    exact = []
    measure_exactly = lpmod._Simplex._measure_exactly

    def record(s):
        exact.append(s.w)
        return measure_exactly(s)

    monkeypatch.setattr(lpmod._Simplex, "_measure_exactly", record)
    assert sx._measure() == 1 << 14 == sx.room
    sx._fit(lambda bound: bound)
    assert (exact, sx.bound, sx.w) == ([16], big, 16)
    assert _rows_of_n(sx) == [[big, 0], [-1, 1]]


def _pivot_work(program):
    """``solve`` with every pivot checked to do only the work its numbers require.

    x is rewritten, as a new list at xd = p, exactly on the pivots where
    x_l != 0; any other pivot leaves x and xd as they were.  A pivot with
    p = D keeps D and leaves every column it does not touch as it was; any
    other pivot sets D = p and rescales each such column to p * col_k / D.
    Returns the solution and the counts of pivots, p = D pivots, pivots
    with x_l = 0, rewrites of x, and rewrites of x from an xd other than D.
    """
    counts = dict.fromkeys(("pivots", "p = D", "x_l = 0", "x rewrites", "from a stale xd"), 0)
    pivot = lpmod._Simplex._pivot

    def audit_pivot(sx, l, u, packed):
        d, xd, x, cols = sx.d, sx.xd, sx.x, _offset_cols(sx, sx.cols, -1)
        values = list(x)
        row, touched = pivot(sx, l, u, packed)
        counts["pivots"] += 1
        rewritten = sx.x is not x
        assert rewritten == (values[l] != 0)
        if rewritten:
            counts["x rewrites"] += 1
            counts["from a stale xd"] += xd != d
            assert sx.xd == u[l]
        else:
            counts["x_l = 0"] += 1
            assert (sx.x, sx.xd) == (values, xd)
        counts["p = D"] += u[l] == d
        assert sx.d == u[l]
        new = _offset_cols(sx, sx.cols, -1)
        assert all(new[k] == u[l] * cols[k] // d for k in range(sx.m) if k not in touched)
        return row, touched

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_pivot", audit_pivot)
        sol = solve(program)
    return sol, counts


@pytest.mark.parametrize("build, pinned", [
    (lambda: build_prt_lp(EQ2, F(1, 8)), (262, 126, 142, 120, 8)),
    (lambda: build_qprt_lp(families.make_function("maj", 4, "qc"), F(1, 8)), (208, 155, 157, 51, 2)),
    (lambda: STALE_X, (2, 0, 1, 1, 1)),
], ids=["prt eq2", "qprt maj4", "stale x"])
def test_a_pivot_does_only_the_work_its_numbers_require(build, pinned):
    """Most corpus pivots have p = D or x_l = 0; those leave the untouched columns, or x, alone.

    The counts are pinned exactly: (pivots, p = D, x_l = 0, rewrites of x,
    rewrites from a stale xd).  STALE_X rewrites x from an xd other than D.
    """
    program = build()
    sol, counts = _pivot_work(program)
    assert tuple(counts.values()) == pinned, counts
    assert sol.canonical_bytes() == reference_solve(program).canonical_bytes()


@pytest.mark.parametrize("build, reads", [
    (lambda: build_qprt_lp(families.make_function("maj", 4, "qc"), F(1, 8)), (1, 0)),
    (lambda: build_prt_lp(EQ2, F(1, 8)), (5, 0)),
    (lambda: build_rprt_lp(EQ2, F(1, 8)), (5, 0)),
    (lambda: build_srec_lp(SrecInstance(EQ2, 1, F(1, 8), F(1, 8))), (0, 0)),
], ids=["qprt maj4", "prt eq2", "rprt eq2", "srec1 eq2"])
def test_corpus_programs_stay_in_32_bit_slots(build, reads):
    """A qprt or chain program solves in the 16-bit slots it starts at, well inside 32 bits.

    Neither N nor the prices widen.  The pivot bound is loose, so it reads
    a fresh M a fixed number of times: (bound reads, exact reads), a power
    of two from one mask test per column and, where that fails the check,
    an O(m^2) read of every slot.  The counts are pinned exactly so that a
    looser bound, which would read M on every check and lose the narrow
    slots' gain unseen, fails here.
    """
    sol, counts = _audited_solve(build())
    assert sol.status == "optimal"
    assert (counts["w"], counts["bound reads"], counts["exact reads"], counts["widenings"]) == (
        16, *reads, 0), counts
    assert (counts["pw"], counts["price widenings"]) == (16, 0), counts


def _benchmark_widths():
    """Per benchmark solve, in run order: (program, final w, final pw, [bound reads, exact reads] of M, widenings).

    A widening is (pivot, old w, new w); N's are listed first, then the price
    blocks'.  The programs are the chain's prt, rprt, srec^0 and srec^1 on
    eq2, gt2, and2, xor2 and disj2 and qprt on and4, maj5, xor4 and maj4,
    each labelled by its table.
    """
    solves, label = [], []
    measure, measure_exactly = lpmod._Simplex._measure, lpmod._Simplex._measure_exactly
    fit, fit_prices, run = lpmod._Simplex._fit, lpmod._Simplex._fit_prices, lpmod._Simplex.run

    def audit_measure(sx):
        sx.audit[0][0] += 1
        return measure(sx)

    def audit_measure_exactly(sx):
        sx.audit[0][1] += 1
        return measure_exactly(sx)

    def audit_fit(sx, need):
        w = sx.w
        fit(sx, need)
        if sx.w != w:
            sx.audit[1].append((sx.iterations, w, sx.w))

    def audit_fit_prices(sx, need):
        w = sx.pw
        fit_prices(sx, need)
        if sx.pw != w:
            sx.audit[2].append((sx.iterations, w, sx.pw))

    def audit_run(sx):
        sx.audit = [[0, 0], [], []]
        sol = run(sx)
        solves.append((label[0], sx.w, sx.pw, sx.audit[0], sx.audit[1] + sx.audit[2]))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_measure", audit_measure)
        mp.setattr(lpmod._Simplex, "_measure_exactly", audit_measure_exactly)
        mp.setattr(lpmod._Simplex, "_fit", audit_fit)
        mp.setattr(lpmod._Simplex, "_fit_prices", audit_fit_prices)
        mp.setattr(lpmod._Simplex, "run", audit_run)
        _solve_benchmark_programs(label)
    return solves


def _solve_benchmark_programs(label):
    """Solve the benchmark's 24 chain and qprt programs, with ``label[0]`` set to each one's table."""
    for family in ("eq", "gt", "and", "xor", "disj"):
        label[:] = [f"{family}2"]
        ccbounds.check_chain(families.make_function(family, 2, "cc"), F(1, 8))
    for family, n in (("and", 4), ("maj", 5), ("xor", 4), ("maj", 4)):
        label[:] = [f"{family}{n}"]
        qcbounds.qprt_bound(families.make_function(family, n, "qc"), F(1, 8))


def test_benchmark_programs_price_in_32_bit_slots():
    """Every chain and qprt program of the benchmark prices in slots of at most 32 bits.

    Pricing starts at pw = 16.  The chain programs of and2 and xor2 price at
    16 bits throughout, since the weighted bound D max c + sum_i |Y_i|
    rowmax_i clears 2^14 where reach max |Y| does not; qprt maj5 widens to
    32 at pivot 1324 and xor4 at pivot 249, where the weighted bound passes
    2^14 too.  N's slots widen once, 16 -> 32 at pivot 394 of one xor2
    program.  The loose pivot bound reads a fresh M the pinned number of
    times per table, as (bound reads, exact reads): 137 power-of-two reads
    by mask tests, and only 7 exact reads of all m^2 slots.
    """
    solves = _benchmark_widths()
    assert len(solves) == 24
    assert [(name, w, pw) for name, w, pw, _, _ in solves if (w, pw) != (16, 16)] == [
        ("xor2", 32, 16), ("maj5", 16, 32), ("xor4", 16, 32)]
    assert [(name, widened) for name, _, _, _, widened in solves if widened] == [
        ("xor2", [(394, 16, 32)]), ("maj5", [(1324, 16, 32)]), ("xor4", [(249, 16, 32)])]
    reads = {}
    for name, _, _, (bound_reads, exact_reads), _ in solves:
        total = reads.get(name, (0, 0))
        reads[name] = (total[0] + bound_reads, total[1] + exact_reads)
    assert reads == {"eq2": (15, 0), "gt2": (0, 0), "and2": (32, 1), "xor2": (42, 6), "disj2": (1, 0),
                     "and4": (1, 0), "maj5": (43, 0), "xor4": (2, 0), "maj4": (1, 0)}


@pytest.mark.parametrize("w", [16, 32, 64, 256])
def test_packed_slots_round_trip(w):
    """Zeros and the widest slot values the bound admits, +-(2^(w-2) - 1), survive pack, unpack and the row read.

    The row read also names the columns where the row is nonzero.
    """
    top = (1 << (w - 2)) - 1
    columns = [[0, 0, 0, 0, 0], [top, -top, 0, 1, 0], [-top, -top, -top, -top, -top],
               [top, 0, -1, top, top], [-1, top, -top, 0, -top]]
    for values in ([], *columns):
        off = lpmod._offset(len(values), w)
        packed = _pack(values, w)
        assert packed == sum(v << (w * i) for i, v in enumerate(values))
        assert lpmod._unpack([packed], len(values), w, off) == values
    sx = lpmod._Simplex(from_constraints(("x",), {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))] * 5))
    sx._set_width(w)
    sx.cols = _offset_cols(sx, [_pack(column, w) for column in columns], 1)
    rows = [list(row) for row in zip(*columns)]
    assert [sx._row(i) for i in range(5)] == [(row, [k for k, a in enumerate(row) if a]) for row in rows]


def test_a_pivot_that_outgrows_the_slots_widens_them_first():
    """N = 2^40 I at D = 1 in 64-bit slots, pivoting on u = (2^30, 2^30): row 1 becomes (-2^70, 2^70).

    The column read passes its check, so only the pivot's own bound can see
    that the new entries need wider slots.
    """
    sx = lpmod._Simplex(from_constraints(("x",), {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))] * 2))
    sx._set_width(64)
    big = 1 << 40
    sx.cols = _offset_cols(sx, [_pack(column, sx.w) for column in ([big, 0], [0, big])], 1)
    sx.bound = big
    u = [1 << 30, 1 << 30]
    sx._pivot(0, u, _pack(u, sx.w))
    assert sx.w > 64
    assert (sx.d, _rows_of_n(sx)) == (1 << 30, [[big, 0], [-(1 << 70), 1 << 70]])


def test_a_pivot_that_outgrows_the_16_bit_slots_widens_them_to_32():
    """N = 2^10 I at D = 1 in the starting slots, pivoting on u = (2^7, 2^7): row 1 becomes (-2^17, 2^17)."""
    sx = lpmod._Simplex(from_constraints(("x",), {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))] * 2))
    assert sx.w == 16
    big = 1 << 10
    sx.cols = _offset_cols(sx, [_pack(column, sx.w) for column in ([big, 0], [0, big])], 1)
    sx.bound = big
    u = [1 << 7, 1 << 7]
    sx._pivot(0, u, _pack(u, sx.w))
    assert sx.w == 32
    assert (sx.d, _rows_of_n(sx)) == (1 << 7, [[big, 0], [-(1 << 17), 1 << 17]])


def test_a_pivot_that_outgrows_the_32_bit_slots_widens_them_to_64():
    """N = 2^20 I at D = 1 in 32-bit slots, pivoting on u = (2^15, 2^15): row 1 becomes (-2^35, 2^35)."""
    sx = lpmod._Simplex(from_constraints(("x",), {"x": F(1)}, [Constraint({"x": F(1)}, ">=", F(1))] * 2))
    sx._set_width(32)
    big = 1 << 20
    sx.cols = _offset_cols(sx, [_pack(column, sx.w) for column in ([big, 0], [0, big])], 1)
    sx.bound = big
    u = [1 << 15, 1 << 15]
    sx._pivot(0, u, _pack(u, sx.w))
    assert sx.w == 64
    assert (sx.d, _rows_of_n(sx)) == (1 << 15, [[big, 0], [-(1 << 35), 1 << 35]])


WIDE_RATIONALS = st.one_of(SMALL_RATIONALS, st.builds(F, st.integers(-2**40, 2**40), st.integers(1, 6)))


@st.composite
def wide_programs(draw):
    return from_constraints(*_small_program_args(draw, WIDE_RATIONALS))


# a and b each cost 1 and cover two rows whose diagonal is near 3^20: entries of
# N pass 2^30 but stay under 2^62
THREE_TO_THE_20 = from_constraints(
    ("a", "b"), {"a": F(1), "b": F(1)},
    (Constraint({"a": F(3**20), "b": F(1)}, ">=", F(1)),
     Constraint({"a": F(1), "b": F(3**20 + 1)}, ">=", F(1))),
)


@settings(max_examples=150, deadline=None)
@given(wide_programs())
@example(THREE_TO_THE_40)
@example(THREE_TO_THE_20)
def test_wide_coefficients_widen_the_slots(program):
    """Entries of N past 2^(w-2) repack the columns at twice the width, never overflowing a slot."""
    widths = []
    fit = lpmod._Simplex._fit

    def record_widening(sx, need):
        w = sx.w
        fit(sx, need)
        if sx.w != w:
            widths.append((w, sx.w))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_fit", record_widening)
        checked_solve(program)
    if program is THREE_TO_THE_40:
        assert widths
    if program is THREE_TO_THE_20:
        assert widths[:1] == [(16, 64)]


# b costs 1 and a costs 2^31: phase 2 prices b at 1 - 2^31, past 2^30, though
# every coefficient fits a 16-bit slot
PRICED_PAST_2_30 = from_constraints(
    ("a", "b"), {"a": F(2**31), "b": F(1)}, (Constraint({"a": F(1), "b": F(1)}, ">=", F(1)),))


def test_reduced_costs_past_2_30_widen_the_pricing_slots():
    assert lpmod._Simplex(PRICED_PAST_2_30).pw == 16
    sol, counts = _audited_solve(PRICED_PAST_2_30)
    assert (counts["pw"], counts["price widenings"]) == (64, 2), counts
    assert sol.canonical_bytes() == reference_solve(PRICED_PAST_2_30).canonical_bytes()


def test_a_coefficient_wider_than_a_slot_widens_the_blocks_before_packing():
    """3^40 needs 64 bits; packed into 32-bit slots it would overflow, not wrap."""
    with pytest.raises(OverflowError):
        lpmod._blocks([3**40], lpmod._BLOCK, 32, lpmod._offset(lpmod._BLOCK, 32))
    assert lpmod._Simplex(THREE_TO_THE_40).pw == 128
    sol, counts = _audited_solve(THREE_TO_THE_40)
    assert counts["pw"] >= 128
    assert sol.canonical_bytes() == reference_solve(THREE_TO_THE_40).canonical_bytes()


def test_a_widening_repacks_once_however_many_doublings_it_takes():
    """16 -> 64 is one repack, not one per doubling: N's columns and the price blocks alike.

    Each call repacks one list of packed ints: N's columns (m = 2 slots
    each) or the price blocks (``_BLOCK`` slots per row).  THREE_TO_THE_20's
    N goes 16 -> 64 in one repack; its prices go 64 -> 128, and its N's later
    64 -> 128 is the loose pivot bound's.  PRICED_PAST_2_30 prices 16 -> 64
    in one repack.
    """
    def repacks(program):
        calls = []
        repack = lpmod._repack

        def record(ints, slots, w, off, wide):
            calls.append((slots, w, wide))
            return repack(ints, slots, w, off, wide)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lpmod, "_repack", record)
            sol = solve(program)
        assert sol.canonical_bytes() == reference_solve(program).canonical_bytes()
        return calls

    block = lpmod._BLOCK
    assert repacks(THREE_TO_THE_20) == [(2, 16, 64), (block, 64, 128), (2, 64, 128)]
    assert repacks(PRICED_PAST_2_30) == [(block, 16, 64)]


def _pivot_path(program, width):
    """The solve of ``program`` with both packings started at ``width`` bits.

    Returns every column read (entering, or replacing an artificial) and
    every pivot as (row, leaving column), in order, and the solution's
    bytes or, for an infeasible program, the refusal.
    """
    path = []
    column, pivot = lpmod._Simplex._column, lpmod._Simplex._pivot

    def record_column(sx, j):
        path.append(("enter", j))
        return column(sx, j)

    def record_pivot(sx, l, u, packed):
        path.append(("leave", l, sx.basis[l]))
        return pivot(sx, l, u, packed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod, "_WIDTH", width)
        mp.setattr(lpmod._Simplex, "_column", record_column)
        mp.setattr(lpmod._Simplex, "_pivot", record_pivot)
        sol = solve_or_refusal(program)
    return path, sol if isinstance(sol, str) else sol.canonical_bytes()


@settings(max_examples=100, deadline=None)
@given(small_programs())
@example(NEGATIVE_DRIVE_OUT)
@example(STALE_X)
@example(build_prt_lp(EQ2, F(1, 8)))
@example(build_qprt_lp(families.make_function("maj", 4, "qc"), F(1, 8)))
def test_the_pivot_path_does_not_depend_on_the_starting_width(program):
    """Slots of 16, 32 or 64 bits hold the same integers, so Bland's rule takes the same path to the same bytes."""
    narrow = _pivot_path(program, 16)
    assert _pivot_path(program, 32) == narrow
    assert _pivot_path(program, 64) == narrow


@pytest.mark.parametrize("w", [16, 32, 64])
def test_slots_without_native_arrays_match_the_native_path(w):
    """With ``_WORDS`` empty, as on a big-endian host, every slot helper reads and writes the same integers.

    ``_pack``, ``_unpack`` and ``_blocks`` then go through ``int.to_bytes``
    slot by slot, and ``_Simplex`` packs its rows from a list and
    ``_layout`` reads a block's slots through that ``_unpack``.
    """
    if sys.byteorder == "little":
        assert lpmod._WORDS == {16: "h", 32: "i", 64: "q"}
    top = (1 << (w - 2)) - 1
    # a full block and a short one
    values = ([0, top, -top, 1, -1, 0, 0, -top, top, 7] * lpmod._BLOCK)[:lpmod._BLOCK + 6]
    off, block_off = lpmod._offset(len(values), w), lpmod._offset(lpmod._BLOCK, w)
    program = build_prt_lp(EQ2, F(1, 8))

    def read():
        packed = _pack(values, w)
        sx = lpmod._Simplex(program)
        assert (sx.w, sx.pw) == (w, w)
        return (packed, lpmod._unpack([packed], len(values), w, off),
                lpmod._blocks(values, lpmod._BLOCK, w, block_off),
                sx.blocks, [sx._layout(j) for j in range(sx.n_total)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod, "_WIDTH", w)
        native = read()
        mp.setattr(lpmod, "_WORDS", {})
        assert read() == native


def test_a_solve_without_native_arrays_gives_the_same_bytes():
    """prt xor2 widens N's slots and its price blocks 16 -> 32; the fallback path takes the same pivots."""
    program = build_prt_lp(families.make_function("xor", 2, "cc"), F(1, 8))
    native = _pivot_path(program, 16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod, "_WORDS", {})
        assert _pivot_path(program, 16) == native


# The column layout: ``_layout(j)`` reads column j from its block as its nonzero
# rows and their values.

def _dense_columns(sx):
    """Every column of the standard form as {row: value}, rebuilt from the program's rows.

    Row i is flipped to a nonnegative rhs and divided by gcd(s_i, *coeffs);
    then come a slack per ``<=`` row, a surplus per ``>=`` row and an
    artificial per ``>=`` and ``=`` row, each in row order.
    """
    cols = [{} for _ in sx.lp.variables]
    rels = []
    for i, (f, row) in enumerate(zip(sx.flip, sx.lp.rows)):
        g = math.gcd(row.s, *row.coeffs)
        for j, a in zip(row.cols, row.coeffs):
            cols[j][i] = f * a // g
        rels.append(row.rel if f > 0 else {"<=": ">=", ">=": "<=", "=": "="}[row.rel])
    cols += [{i: 1 if rel == "<=" else -1} for i, rel in enumerate(rels) if rel != "="]
    cols += [{i: 1} for i, rel in enumerate(rels) if rel != "<="]
    assert len(cols) == sx.n_total
    return cols


def _bland_entering(sx, cost, limit, dense):
    """The lowest nonbasic column below ``limit`` whose reduced cost, read from the rows of N, is negative, or -1."""
    rows = _rows_of_n(sx)
    y = [sum(cost[b] * row[k] for b, row in zip(sx.basis, rows)) for k in range(sx.m)]
    for j in range(limit):
        if j not in sx.basis and cost[j] * sx.d < sum(y[i] * a for i, a in dense[j].items()):
            return j
    return -1


def _layout_audited_solve(program):
    """``solve`` with every column read checked against the dense columns.

    Each ``_column(j)`` equals N * a_j on the rows of N, and so does
    the layout read row by row; inside ``_iterate`` the column read is the one a
    reference Bland scan over the reduced costs read from the rows of N enters, and
    ``_iterate`` returns only when that scan finds none.  Returns the
    solution and the entering columns checked, in order.
    """
    checked = []
    column, iterate = lpmod._Simplex._column, lpmod._Simplex._iterate

    def audit_column(sx, j):
        dense = _dense_columns(sx)
        rows = _rows_of_n(sx)
        want = [sum(row[i] * a for i, a in dense[j].items()) for row in rows]
        assert [_layout_dot(sx, row, j) for row in rows] == want
        phase = getattr(sx, "audit_phase", None)
        if phase:
            assert _bland_entering(sx, *phase, dense) == j
            checked.append(j)
        u = column(sx, j)
        assert u[0] == want
        return u

    def audit_iterate(sx, cost, limit):
        sx.audit_phase = (cost, limit)
        iterate(sx, cost, limit)
        sx.audit_phase = None
        assert _bland_entering(sx, cost, limit, _dense_columns(sx)) == -1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_column", audit_column)
        mp.setattr(lpmod._Simplex, "_iterate", audit_iterate)
        sol = solve(program)
    return sol, checked


# +1 is the common entry; 0 leaves a column out of a row, -1 becomes +1 in a
# row with a negative rhs, and the rest are non-unit after division by g
LAYOUT_ENTRIES = st.sampled_from([F(0), F(0), F(1), F(1), F(1), F(-1), F(2), F(1, 2), F(-3, 4)])


@st.composite
def layout_programs(draw):
    """Programs of up to 5 variables and 5 rows whose columns hold every kind of entry.

    Rows have negative and nonnegative right-hand sides and every relation;
    columns may hold two or more +1 entries, one entry or none.
    """
    names = tuple(f"x{j}" for j in range(draw(st.integers(1, 5))))
    rows = tuple(
        Constraint({v: draw(LAYOUT_ENTRIES) for v in names},
                   draw(st.sampled_from(["<=", "=", ">="])), draw(SMALL_RATIONALS))
        for _ in range(draw(st.integers(1, 5)))
    )
    return from_constraints(names, {v: draw(COSTS) for v in names}, rows)


# x0 holds +1 in three rows, one flipped from -1; x1 holds one non-unit entry;
# x2 holds a lone +1 and a -2 that the flip makes 2; x3 is in no row
EVERY_KIND_OF_ENTRY = from_constraints(
    ("x0", "x1", "x2", "x3"), {"x0": F(1), "x1": F(2), "x2": F(1), "x3": F(1)},
    (Constraint({"x0": F(1), "x1": F(3)}, ">=", F(1)),
     Constraint({"x0": F(-1)}, "<=", F(-1, 2)),
     Constraint({"x0": F(1), "x2": F(1)}, "=", F(2)),
     Constraint({"x2": F(-2)}, ">=", F(-4))),
)


@settings(max_examples=300, deadline=None)
@given(layout_programs())
@example(EVERY_KIND_OF_ENTRY)
@example(NEGATIVE_DRIVE_OUT)
def test_column_layout_reads_the_dense_columns(program):
    checked_solve(program, lambda p: _layout_audited_solve(p)[0])


def test_every_kind_of_entry_takes_its_place_in_the_layout():
    sx = lpmod._Simplex(EVERY_KIND_OF_ENTRY)
    assert sx.flip == [1, -1, 1, -1]
    # x0..x3, the surpluses of rows 0 and 1 (flipped to >=), the slack of row 3 (flipped
    # to <=) and the artificials of rows 0, 1 and 2
    assert [sx._layout(j) for j in range(sx.n_total)] == [
        ([0, 1, 2], [1, 1, 1]), ([0], [3]), ([2, 3], [1, 2]), ([], []), ([0], [-1]),
        ([1], [-1]), ([3], [1]), ([0], [1]), ([1], [1]), ([2], [1])]
    sol, entered = _layout_audited_solve(EVERY_KIND_OF_ENTRY)
    assert sol.status == "optimal" and entered


def test_corpus_structural_entries_are_all_plus_one():
    """Every structural entry of these corpus programs is +1 once its row is divided by g.

    So every value in each variable's layout is +1, and each variable is in
    some row.
    """
    eps, f = F(1, 8), families.eq(2)
    programs = [build_qprt_lp(families.make_function(family, n, "qc"), eps)
                for family, n in (("and", 4), ("maj", 5))]
    programs += [build_prt_lp(f, eps), build_rprt_lp(f, eps)]
    programs += [build_srec_lp(SrecInstance(f, z, eps, eps)) for z in (0, 1)]
    for program in programs:
        sx = lpmod._Simplex(program)
        layouts = [sx._layout(j) for j in range(sx.n_real)]
        assert all(rows and values == [1] * len(rows) for rows, values in layouts)


# Pricing in blocks: one sum reads the reduced costs of a block of columns,
# and the lowest negative slot below the phase's limit enters.

@st.composite
def block_programs(draw, entries=LAYOUT_ENTRIES):
    """Programs of ``_BLOCK`` - 4 to 2 ``_BLOCK`` + 72 variables whose first ``lead`` columns are in no row.

    Such a column never enters, so Bland's rule reaches columns past the
    block boundaries at ``_BLOCK`` and 2 ``_BLOCK``; the variable count and
    the slacks and artificials that follow move where each phase's limit
    falls in its block.  Coefficients and right-hand sides are drawn from
    ``entries`` and ``SMALL_RATIONALS``.
    """
    n = draw(st.integers(lpmod._BLOCK - 4, 2 * lpmod._BLOCK + 72))
    lead = draw(st.integers(0, n - 3))
    names = tuple(f"x{j}" for j in range(n))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = draw(st.lists(entries, min_size=n - lead, max_size=n - lead))
        rows.append(Constraint(dict(zip(names[lead:], row)),
                               draw(st.sampled_from(["<=", "=", ">="])), draw(SMALL_RATIONALS)))
    costs = draw(st.lists(COSTS, min_size=n, max_size=n))
    return from_constraints(names, dict(zip(names, costs)), tuple(rows))


def _across_blocks(block):
    """Five covering rows for blocks of ``block`` columns.

    Row i is covered by x_{10+i} at cost 3, x_{block+6+i} at cost 2 and
    x_{2 block+2+i} at cost 1.  Phase 1 enters columns 10..14 of block 0,
    phase 2 columns block+6 .. block+10 of block 1, then
    2 block+2 .. 2 block+6 of block 2, where phase 2's limit (2 block + 22
    variables and 5 surpluses) ends with the artificials of the covering
    rows, each priced negative, right after it.
    """
    n = 2 * block + 22
    costs = {f"x{j}": F(1 if j >= 2 * block else 2 if j >= block else 3) for j in range(n)}
    rows = tuple(Constraint({f"x{first + i}": F(1) for first in (10, block + 6, 2 * block + 2)}, ">=", F(1))
                 for i in range(5))
    return from_constraints(tuple(f"x{j}" for j in range(n)), costs, rows)


ACROSS_BLOCKS = _across_blocks(lpmod._BLOCK)


@settings(max_examples=40, deadline=None)
@given(block_programs())
@example(ACROSS_BLOCKS)
def test_block_pricing_enters_bland_s_column(program):
    checked_solve(program, lambda p: _layout_audited_solve(p)[0])


def test_block_pricing_enters_columns_on_both_sides_of_each_boundary():
    block = lpmod._BLOCK
    sx = lpmod._Simplex(ACROSS_BLOCKS)
    assert (sx.n_structural, sx.n_total) == (2 * block + 27, 2 * block + 32)
    assert 2 * block < sx.n_structural < sx.n_total <= 3 * block  # phase 2's limit falls inside block 2
    sol, entered = _layout_audited_solve(ACROSS_BLOCKS)
    assert entered == [*range(10, 15), *range(block + 6, block + 11), *range(2 * block + 2, 2 * block + 7)]
    assert sol.value == 5
    assert sol.canonical_bytes() == reference_solve(ACROSS_BLOCKS).canonical_bytes()


# The slot bound: before a pricing pass or a drive-out reads its blocks, the
# sizes of the slots it will read are bounded, first by base + reach max |w_i|,
# then, if that is not below the room, by base + sum_i |w_i| rowmax_i.

def _audited_slot_bounds(solve_programs):
    """Run ``solve_programs()`` with every bound ``_slot_bound`` gives checked against the slots it guards.

    A pricing pass reads L * D times every column's reduced cost,
    D cost_j - Y . a_j, and the drive-out reads N_i . a_j.  Each is
    recomputed exactly from the program's own rows (``_dense_columns``)
    and must be at most both the bound the pass accepts and the weighted
    bound, which a room of 0 always reaches; the pass's base must be
    D max cost, 0 in the drive-out.  Returns the counts of checked pricing
    passes and drive-out rows, and of the checks where a slot exceeded the
    unweighted base + sum_i |w_i|.
    """
    counts = dict.fromkeys(("pricing", "drive-out", "past the unweighted bound"), 0)
    bound, iterate, drive_out = (lpmod._Simplex._slot_bound, lpmod._Simplex._iterate,
                                 lpmod._Simplex._drive_out_artificials)

    def audit_iterate(sx, cost, limit):
        sx.audit_pass = "pricing", cost
        iterate(sx, cost, limit)

    def audit_drive_out(sx):
        sx.audit_pass = "drive-out", [0] * sx.n_total
        drive_out(sx)

    def audit_bound(sx, base, weights, room):
        need = bound(sx, base, weights, room)
        if not hasattr(sx, "audit_columns"):
            sx.audit_columns = [(list(col), list(col.values())) for col in _dense_columns(sx)]
        kind, cost = sx.audit_pass
        assert base == sx.d * max(cost)
        exact = max(abs(sx.d * c - sum(weights[i] * a for i, a in zip(rows, values)))
                    for c, (rows, values) in zip(cost, sx.audit_columns))
        assert exact <= need and exact <= bound(sx, base, weights, 0), (exact, need)
        counts[kind] += 1
        counts["past the unweighted bound"] += exact > base + sum(map(abs, weights))
        return need

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_iterate", audit_iterate)
        mp.setattr(lpmod._Simplex, "_drive_out_artificials", audit_drive_out)
        mp.setattr(lpmod._Simplex, "_slot_bound", audit_bound)
        solve_programs()
    return counts


# non-unit coefficients, whose rows the weighted bound reads at their largest entry
WEIGHTED_ENTRIES = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3), F(5), F(7, 2), F(-5, 3), F(12)])


# phase 1 prices x1 at -5 with Y = (1) and D = 1: the unweighted bound
# D max c + |Y_0| reads 2, the weighted D max c + |Y_0| rowmax_0 reads 6
FIVE_TIMES_X1 = from_constraints(
    ("x0", "x1"), {"x0": F(1), "x1": F(1)}, (Constraint({"x0": F(1), "x1": F(5)}, ">=", F(1)),))


@settings(max_examples=40, deadline=None)
@given(block_programs(WEIGHTED_ENTRIES))
@example(FIVE_TIMES_X1)
@example(NEGATIVE_DRIVE_OUT)
def test_every_slot_bound_holds_the_slots_it_guards(program):
    """Sign-flipped rows and non-unit coefficients, on both sides of the block boundaries."""
    counts = _audited_slot_bounds(lambda: checked_solve(program))
    assert counts["pricing"]
    if program is FIVE_TIMES_X1:
        assert counts["past the unweighted bound"]
    if program is NEGATIVE_DRIVE_OUT:
        assert counts["drive-out"]


def test_every_slot_bound_of_the_benchmark_programs_holds():
    counts = _audited_slot_bounds(lambda: _solve_benchmark_programs([None]))
    # every structural entry is +1 and no artificial is left to drive out
    assert counts == {"pricing": 6171, "drive-out": 0, "past the unweighted bound": 0}


# Carried pricing: a block the last pass read is carried through the pivot row,
# not summed from Y again.

def _audited_carries(solve_programs):
    """Run ``solve_programs()`` with every block a pricing pass reads checked against a sum from scratch.

    The blocks are locals of ``_iterate``: ``sums`` holds T_b for the first
    ``held`` of them.  ``_slot_bound``, which every pass calls first, reads
    from ``_iterate``'s frame how many blocks the pass may carry (the last
    pass's ``held``) and whether D moved; ``_fit_prices`` called from there
    means a widening, after which none may be carried.  ``_column``, called
    once a pass has found its entering block, reads the blocks the pass read
    from the same frame; the last pass of a phase reads every block below its
    limit, read from the same ``sums`` list when ``_iterate`` returns.  Each
    T_b must equal D * C_b - sum_i Y_i A_ib with Y = c_B N from the rows of N
    and A from the program's rows (``_dense_columns``), packed afresh and
    compared as packed ints.  Returns the counts of block reads carried
    through the pivot row (and of those, the ones after a p != D pivot) and
    summed from Y, and of widenings that dropped carried blocks.
    """
    counts = dict.fromkeys(("carried", "carried past p != D", "summed", "dropped by a widening"), 0)
    iterate, bound, fit_prices, column = (lpmod._Simplex._iterate, lpmod._Simplex._slot_bound,
                                          lpmod._Simplex._fit_prices, lpmod._Simplex._column)
    code = iterate.__code__

    def check(sx, cost, sums, read):
        rows = _rows_of_n(sx)
        y = [sum(cost[b] * row[k] for b, row in zip(sx.basis, rows)) for k in range(sx.m)]
        width = min(read * lpmod._BLOCK, sx.n_total)
        t = [sx.d * cost[j] - sum(y[i] * a for i, a in sx.audit_dense[j].items()) for j in range(width)]
        assert sums[:read] == lpmod._blocks(t, lpmod._BLOCK, sx.pw, lpmod._offset(lpmod._BLOCK, sx.pw))
        carried = min(sx.audit_carry, read)
        counts["carried"] += carried
        counts["carried past p != D"] += carried * sx.audit_rescaled
        counts["summed"] += read - carried

    def audit_bound(sx, base, weights, room):
        caller = sys._getframe(1)
        if caller.f_code is code:
            f = caller.f_locals
            sx.audit_carry, sx.audit_sums = f.get("held", 0), f["sums"]
            sx.audit_rescaled = f["d"] != f["last"]
        return bound(sx, base, weights, room)

    def audit_fit_prices(sx, need):
        if sys._getframe(1).f_code is code:
            counts["dropped by a widening"] += sx.audit_carry > 0
            sx.audit_carry = 0
        fit_prices(sx, need)

    def audit_column(sx, j):
        caller = sys._getframe(1)
        if caller.f_code is code:
            f = caller.f_locals
            check(sx, f["cost"], f["sums"], f["held"])
        return column(sx, j)

    def audit_iterate(sx, cost, limit):
        if not hasattr(sx, "audit_dense"):
            sx.audit_dense = _dense_columns(sx)
        iterate(sx, cost, limit)
        check(sx, cost, sx.audit_sums, len(sx._masks(limit)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_iterate", audit_iterate)
        mp.setattr(lpmod._Simplex, "_slot_bound", audit_bound)
        mp.setattr(lpmod._Simplex, "_fit_prices", audit_fit_prices)
        mp.setattr(lpmod._Simplex, "_column", audit_column)
        solve_programs()
    return counts


@settings(max_examples=40, deadline=None)
@given(block_programs(WEIGHTED_ENTRIES))
@example(ACROSS_BLOCKS)
@example(STALE_X)
@example(PRICED_PAST_2_30)
@example(NEGATIVE_DRIVE_OUT)
def test_every_carried_block_equals_its_sum_from_scratch(program):
    """Both sides of the block boundaries, sign-flipped rows and non-unit entries.

    ACROSS_BLOCKS carries each of its three blocks into later passes,
    STALE_X carries past its p = 2 != D = 1 pivot, PRICED_PAST_2_30 widens
    at phase 2's first pass, and NEGATIVE_DRIVE_OUT drives an artificial out
    between the phases; a phase starts with nothing carried.
    """
    counts = _audited_carries(lambda: checked_solve(program))
    if program is ACROSS_BLOCKS:
        assert counts["carried"] > counts["summed"] > 0, counts
    if program is STALE_X:
        assert counts["carried past p != D"], counts


def test_a_widening_in_mid_phase_drops_the_carried_blocks():
    """THREE_TO_THE_40 widens its price slots in mid-phase, after a pass that read a block.

    A carried block is at the old width, so after a widening every block is
    summed from Y; the audit compares each read with its sum from scratch.
    PRICED_PAST_2_30 widens only at phase 2's first pass, where nothing is
    carried yet.
    """
    assert _audited_carries(lambda: checked_solve(THREE_TO_THE_40))["dropped by a widening"] == 1
    assert _audited_carries(lambda: checked_solve(PRICED_PAST_2_30))["dropped by a widening"] == 0


def test_the_benchmark_programs_carry_most_block_reads_through_the_pivot_row():
    """Of the 9357 block reads of the benchmark's chain and qprt solves, 8011 are carried and 1346 summed from Y.

    3584 of the carried reads follow a p != D pivot; qprt maj5 and xor4 each
    drop their carried blocks once, when their price slots widen to 32 bits.
    """
    counts = _audited_carries(lambda: _solve_benchmark_programs([None]))
    assert counts == {"carried": 8011, "carried past p != D": 3584, "summed": 1346, "dropped by a widening": 2}


def test_the_benchmark_pivots_divide_only_by_d_over_gcd_p_d():
    """A pivot divides its columns by d' = D / gcd(p, D), and only where d' is not 1 or a power of two.

    Before each pivot the columns become ints that turn p' * col_k into a
    numerator recording every ``//`` and ``>>`` taken of it.  A p = D pivot
    and one with d' = 1 take neither; one with d' = 2^t > 1 shifts every
    column by t; any other divides every column by d'.  The arms are pinned
    on the benchmark's 24 chain and qprt solves, so a change that divides
    where d' does not need it fails here.
    """
    calls = []

    class Numerator(int):
        def __sub__(self, other):
            return Numerator(int(self) - other)

        def __floordiv__(self, other):
            calls.append(("//", other))
            return int(self) // other

        def __rshift__(self, other):
            calls.append((">>", other))
            return int(self) >> other

    class Held(int):
        def __rmul__(self, other):
            return Numerator(other * int(self))

    arms = dict.fromkeys(("p = D", "d' = 1", "shift", "division"), 0)
    pivot = lpmod._Simplex._pivot

    def audit_pivot(sx, l, u, packed):
        p, d = u[l], sx.d
        dg = d // math.gcd(p, d)
        calls.clear()
        sx.cols[:] = map(Held, sx.cols)
        out = pivot(sx, l, u, packed)
        sx.cols[:] = map(int, sx.cols)
        if p == d:
            arm, want = "p = D", []
        elif dg == 1:
            arm, want = "d' = 1", []
        elif dg & (dg - 1):
            arm, want = "division", [("//", dg)] * sx.m
        else:
            arm, want = "shift", [(">>", dg.bit_length() - 1)] * sx.m
        assert calls == want, (p, d)
        arms[arm] += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_pivot", audit_pivot)
        _solve_benchmark_programs([None])
    assert arms == {"p = D": 3413, "d' = 1": 928, "shift": 1040, "division": 742}


@pytest.mark.parametrize("build", [
    lambda: build_qprt_lp(families.make_function("maj", 4, "qc"), F(1, 8)),
    lambda: build_prt_lp(EQ2, F(1, 8)),
], ids=["qprt maj4", "prt eq2"])
def test_block_pricing_on_corpus_programs(build):
    """Each entering column of a corpus solve is the one a column-by-column Bland scan picks."""
    program = build()
    sol, entered = _layout_audited_solve(program)
    assert max(entered) >= lpmod._BLOCK
    assert sol.canonical_bytes() == reference_solve(program).canonical_bytes()


def _pivot_trace(program):
    """The solution or the refusal of ``solve_or_refusal``, and the basis and D before every pivot
    and at the end of the run."""
    trace = []
    pivot, run = lpmod._Simplex._pivot, lpmod._Simplex.run

    def record_pivot(sx, l, u, packed):
        trace.append((tuple(sx.basis), sx.d, l))
        return pivot(sx, l, u, packed)

    def record_run(sx):
        try:
            return run(sx)
        finally:
            trace.append((tuple(sx.basis), sx.d))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod._Simplex, "_pivot", record_pivot)
        mp.setattr(lpmod._Simplex, "run", record_run)
        sol = solve_or_refusal(program)
    return sol, trace


@settings(max_examples=200, deadline=None)
@given(small_program_args(), st.sampled_from([2, 7, 8]))
def test_dividing_every_rhs_keeps_the_bases_and_d(args, k):
    """b / k is one common factor on x: the same bases and D after every pivot.

    A row's rhs denominator does not scale the row, so D = |det B| depends on
    the coefficients alone; the point is divided by k, the dual and any
    refusal the same.
    """
    variables, objective, rows = args
    divided = tuple(dataclasses.replace(c, rhs=c.rhs / k) for c in rows)
    sol, trace = _pivot_trace(from_constraints(*args))
    got, got_trace = _pivot_trace(from_constraints(variables, objective, divided))
    assert got_trace == trace
    if isinstance(sol, str):
        assert got == sol
    else:
        assert got.primal == {v: x / k for v, x in sol.primal.items()}
        assert got.value == sol.value / k
        assert got.dual == sol.dual


@settings(max_examples=300, deadline=None)
@given(small_programs(), st.data())
def test_certificate_checkers_match_reference(program, data):
    """The dual checks on the zero-objective program give the row-by-row Farkas verdict.

    A Farkas vector is a feasible dual of the zero-objective minimization
    with a positive dual objective.  Candidates are a random vector, the
    same vector with every sign the check demands, and the reference's
    certificate of an infeasible program with a random multiple.
    """
    rows = program.rows
    y = {i: data.draw(SMALL_RATIONALS) for i in range(len(rows))}
    sign = {">=": abs, "<=": lambda c: -abs(c), "=": lambda c: c}
    farkas = [y, {i: sign[r.rel](c) for (i, c), r in zip(y.items(), rows)}]
    sol = checked_solve(program)
    if isinstance(sol, reference_lp.Infeasible):
        k = data.draw(SMALL_RATIONALS)
        farkas += [sol.farkas, {key: k * c for key, c in sol.farkas.items()}]
    zero = replace(program, cost=Row(1, (), (), "=", 0, "objective"))
    for vector in farkas:
        dual = [vector.get(i, F(0)) for i in range(len(rows))]
        got = not check_dual_feasible(zero, dual) and dual_objective(program, dual) > 0
        assert got == reference_lp.check_farkas(program, vector)


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
    and dual or the reference's Farkas vector, and those with one entry moved.
    """
    names, m = list(program.variables), len(program.rows)
    values = st.one_of(SMALL_RATIONALS, st.integers(-3, 3))
    cases = [
        (data.draw(st.dictionaries(st.sampled_from(names + ["undeclared"]), values)),
         data.draw(st.lists(values, min_size=m, max_size=m))),
        ({}, [0] * m),
    ]
    sol = checked_solve(program)
    if isinstance(sol, reference_lp.Infeasible):
        point, dual = {}, [sol.farkas.get(i, F(0)) for i in range(m)]
    else:
        point, dual = dict(sol.primal), list(sol.dual) or cases[0][1]
    v, i = data.draw(st.sampled_from(names)), data.draw(st.integers(0, m - 1))
    moved, moved_dual = dict(point), list(dual)
    moved[v] = moved.get(v, 0) + data.draw(NONZERO_RATIONALS)
    moved_dual[i] += data.draw(NONZERO_RATIONALS)
    cases += [(point, dual), (moved, moved_dual)]
    for point, dual in cases:
        _assert_checks_match_reference(program, point, dual)


@settings(max_examples=200, deadline=None)
@given(keyed_programs(), st.data())
def test_checks_on_unit_and_empty_rows_match_fraction_reference(program, data):
    """Rows read as one coefficient, of either sign, and empty rows give the
    Fraction checks' values and violations on random points and duals."""
    names, m = list(program.variables), len(program.rows)
    values = st.one_of(SMALL_RATIONALS, st.integers(-3, 3))
    point = data.draw(st.dictionaries(st.sampled_from(names), values))
    _assert_checks_match_reference(program, point, data.draw(st.lists(values, min_size=m, max_size=m)))


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
    names, objective, rows = args
    program = from_constraints(*args)
    assert reference_lp.integer_form(program) == reference_lp.reference_form(names, objective, rows)


def test_corpus_integer_form_matches_the_reference_rows():
    """The builders emit the rows the Fraction builders made, scaled as the reference scales them."""
    eps, count = F(1, 8), 0
    for family in ("eq", "gt", "and", "xor", "disj"):
        f = families.make_function(family, 2, "cc")
        rects, cells = _rect_family(f.nx, f.ny), [(x, y) for x in range(f.nx) for y in range(f.ny)]
        pairs = [(build_prt_lp(f, eps), reference_lp.partition_parts(rects, f, cells, eps, False)),
                 (build_rprt_lp(f, eps), reference_lp.partition_parts(rects, f, cells, eps, True))]
        for z in (0, 1):
            inst = SrecInstance(f, z, eps, eps)
            pairs.append((build_srec_lp(inst), reference_lp.srec_parts(inst)))
        for program, parts in pairs:
            assert reference_lp.integer_form(program) == reference_lp.reference_form(*parts)
            count += 1
    for family, n in (("and", 4), ("maj", 5), ("xor", 4), ("maj", 4)):
        g = families.make_function(family, n, "qc")
        points = [(x,) for x in range(1 << n)]
        parts = reference_lp.partition_parts(_cube_family(n), g, points, eps, False)
        assert reference_lp.integer_form(build_qprt_lp(g, eps)) == reference_lp.reference_form(*parts)
        count += 1
    assert count == len(list(_corpus_programs()))


UNIT_FRACTIONS = st.fractions(0, 1, max_denominator=64)
TABLES_4X4 = st.lists(st.integers(0, 1), min_size=16, max_size=16).map(
    lambda bits: TwoPartyFunction(tuple(tuple(bits[4 * x:4 * x + 4]) for x in range(4))))
QUERY_FUNCTIONS = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n).map(
        lambda table: QueryFunction(n, tuple(table))))
PRODUCT_MEASURES = st.one_of(
    st.none(),
    st.just(ProductDistribution2P.uniform(4, 4)),
    st.builds(ProductDistribution2P, *[st.tuples(*[UNIT_FRACTIONS] * 4)] * 2),
)


def _assert_meets_every_row(program, point):
    assert point.keys() <= set(program.variables)  # ``check_feasible`` drops undeclared names
    assert check_feasible(program, point) == []


@settings(max_examples=200, deadline=None)
@given(TABLES_4X4, QUERY_FUNCTIONS, UNIT_FRACTIONS, UNIT_FRACTIONS, st.sampled_from([0, 1]), PRODUCT_MEASURES)
def test_own_label_singletons_meet_every_bound_program(f, g, eps, delta, z, mu):
    """Every bound LP is feasible, so ``solve`` may refuse an infeasible program as a builder bug.

    Each cell's or point's singleton at weight 1 under its own label meets
    every prt, rprt and qprt row; the singletons of the label-z cells at
    1 - eps meet every srec row, worst-case (mu None) and distributional.
    """
    cells = [(x, y) for x in range(f.nx) for y in range(f.ny)]
    own = {f"w{f.value(x, y)}_{1 << x:x}_{1 << y:x}": F(1) for x, y in cells}
    _assert_meets_every_row(build_prt_lp(f, eps), own)
    _assert_meets_every_row(build_rprt_lp(f, eps), own)
    label_z = {f"w_{1 << x:x}_{1 << y:x}": 1 - eps for x, y in cells if f.value(x, y) == z}
    _assert_meets_every_row(build_srec_lp(SrecInstance(f, z, eps, delta, mu)), label_z)
    full = (1 << g.n) - 1
    points = {f"w{g.value(x)}_{Subcube(g.n, full, x).pattern()}": F(1) for x in range(1 << g.n)}
    _assert_meets_every_row(build_qprt_lp(g, eps), points)


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
    sol = checked_solve(program)
    assert status == ("infeasible" if isinstance(sol, reference_lp.Infeasible) else "optimal")
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
    return from_constraints(tuple(names), objective, tuple(rows))


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
    sol = checked_solve(program)
    if isinstance(sol, reference_lp.Infeasible):
        assert status == "infeasible"
    else:
        assert (status, sol.value) == ("optimal", value)
