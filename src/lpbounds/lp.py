"""Exact rational linear programming with certified primal/dual solutions.

Every program has one shape: minimise cost . x subject to its rows, with
x >= 0 and cost >= 0.  Each bound LP (srec, prt, rprt, qprt) minimises
total weight over nonnegative weights, so the solver, the checkers and the
cache key handle no other sense and no free variable.  No optimum is
below 0, and every bound LP is feasible by construction, so ``solve``
returns a certified optimum or raises: an infeasible program is a builder
bug, an ``InfeasibleConstructionError``.  ``solve`` refuses a negative cost
coefficient; the checkers take any program.

The solver is a two-phase revised simplex with Bland's pivoting rule:
entering variable is the lowest-index column with a negative reduced cost,
leaving row breaks ratio ties by lowest basic column index.  Bland's rule
guarantees termination and makes every solve deterministic: the same
program always produces the same pivot sequence, hence byte-identical
solutions.  Pricing reads the reduced costs ``_BLOCK`` = 128 columns at a
time (see "Pricing in blocks" below) and enters the lowest negative one,
the column a scan one by one would enter.

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
every result is certified before it is returned.  The integer duals
Y = L * D * y are built once per phase, as c_B N (c_B itself when the
phase starts before any pivot, at N = I and D = 1), and then updated
per pivot, Y' = (p * Y + d_e * N_l) / D, where d_e is L * D times the
reduced cost of the entering column; when p = D that is Y + d_e * N_l / D,
which changes Y only where row l of N is nonzero.  Fractions are made
only at the boundary: basic values and duals.

N is stored by columns, each one Python int with an offset added:
``cols[k]`` is sum_i (N_ik + 2^(w-1)) * 2^(w i), column k packed in
signed w-bit slots plus ``off`` = sum_i 2^(w-1) * 2^(w i), so every slot
is nonnegative and none borrows from the next; every column is at the
current D.  Packing is linear, so a pivot acts on whole columns.  Let u'
be the packed u with slot l set to p - D (which keeps row l),
g = gcd(p, D), p' = p / g and d' = D / g.  Held column k becomes
(p' * cols[k] - s_r) / d', where s_r = r * u' / g + (p' - d') * off is
made once per distinct r = N_lk, 0 included: that is the column
(p * col_k - r * u') / D with the offset kept.  u' is the packed sum
``_column`` formed, less D << (w l); only a pivot whose bound check
widened the slots packs u again.  D divides every slot of p * col_k -
r * u' (Sylvester), so g divides every slot of r * u' and d' every slot
of the numerator: both divisions are exact however wide an intermediate
slot grows.  r * u' / g is (r / g) * u' where g divides r, a small
division.  The division by d' is skipped when d' = 1 and is a shift
when d' is a power of two; on the benchmark's chain and qprt programs
1968 of the 2710 pivots with p != D take no division.  When p = D,
most pivots, p' = d' = 1 and s_0 = 0: column k less r * u' / D, and a
column with N_lk = 0 stays as it is.  ``_column`` sums the held columns
that a_j reads, takes (sum_i a_ij) * off off that sum and unpacks it
once.  A pivot reads row l (slot l of every column) once: ``_row`` reads
slot l of held column c as (c >> w l & (2^w - 1)) - 2^(w-1), with no add,
and returns the row with the columns where it is nonzero, the ones a
p = D pivot rewrites; the row then goes to the dual update.

x alone is held lazily, at its own determinant ``xd`` > 0:
x = xd * L_b * x_B, and the basic values are x_i / (xd * L_b).  A
degenerate pivot (x_l = 0) only rescales x by p / D, so it leaves x and
xd alone.  Any other pivot rewrites x as (p * x_i - u_i * x_l) / xd,
exact by the same identity, sets x_l to its value at D, x_l * D / xd,
and then sets xd = p.  The ratio test compares x_i / u_i, and a positive
common factor keeps their order, so it reads x at xd.  Only when
artificials are driven out after phase 1 can p be negative; D and every
column are then negated, as N / D = (-N) / (-D), a held column c to
2 * off - c.  Those pivots are
degenerate (each basic artificial is at level 0), so x and xd > 0 stay
as they are.

A slot holds only what is unpacked: N and N a_j.  The simplex keeps a
bound M >= |N_ik| and, before each column read and each pivot, checks the
worst case of what it will unpack against 2^(w-2): M times the l1 norm of
a_j, or (|p| M + max |u_i| * max |N_lk|) / |D| for the entries a pivot
writes, both maxima taken over the nonzero entries alone.
If the check fails, M is read as a power of two, at most 2 max |N_ik|,
by mask tests (``_measure``).
Only if the check fails on that is M read exactly, all m^2 slots in one
``_unpack``; if it still fails, every column is repacked once, at the
first of 2w, 4w, ... that clears it, so no slot overflows silently.
w starts at 16 (``_WIDTH``).
One codec holds the slot format of N's columns and the price blocks:
``_blocks`` packs values ``size`` slots to an int, ``_unpack`` reads any
number of packed ints into one flat list, and ``_repack`` is that read
and ``_blocks`` at the new width.  N's columns go to the codec with the
offset taken off (``_plain``) and take it back after a repack.  At 16, 32
and 64 bits they go through a native ``array`` or ``memoryview`` cast
(typecodes "h", "i" and "q" on a little-endian host, ``_WORDS``), else
slot by slot through ``int.to_bytes``.

Pricing in blocks.  The standard form A, slacks and artificials included,
is held by rows in blocks of ``_BLOCK`` = 128 columns: ``blocks[b][i]``
packs row i's coefficients on columns 128 b .. 128 b + 127 in signed
slots of pw bits, as B^-1's columns are packed but with no offset held,
and the costs of a phase are packed the same way.  Packing is linear, so
D * C_b - sum_i Y_i * blocks[b][i], one big-int sum, holds L * D times the
reduced cost of all 128 columns; a basic column reads exactly 0, so no
basis set is kept.  One m-term sum costs about 100 ns per term plus a
share that grows with the width: at m = 32 about 3.5 us on 512-bit blocks
and 6-8 us on 2048-bit ones (Python 3.11.7, Intel Xeon).  So fewer, wider
sums win when a pass reads several blocks, but wider slots slow each sum:
pw stays as narrow as the bounds below allow.  Before every pricing pass
the size of every slot is bounded in two steps (``_slot_bound``): first
by D max c + reach max |Y|, reach = sum_i rowmax_i >= every column's l1
norm, rowmax_i the largest |entry| of row i; if that is not below
2^(pw-2), by the tighter D max c + sum_i |Y_i| rowmax_i, which costs m
products.  If that fails too, every block is repacked once, at the first
of 2 pw, 4 pw, ... that clears it, so no slot overflows silently.  pw
starts at 16 and is doubled before packing until reach fits.  Adding the
offset 2^(pw-1) to each slot leaves its top bit clear exactly where the
reduced cost is negative; masked to the columns below the phase's limit,
the lowest such bit names the entering column, and pricing stops at the
first block that has one.  The drive-out of artificials reads row_i . A
from the same blocks, bounded by the same two steps with N_i in place of
Y and no cost (sum_k |N_ik| rowmax_k), and takes the lowest nonzero
slot.  A row's price image is packed from one native array over the
variables, sliced into blocks, so no m x n Python list is ever held.

A block read on the last pass is not summed from Y again but carried
through the pivot row, in |touched| products instead of m.  With
T_b = D * C_b - sum_i Y_i * blocks[b][i] and Y' as above,

  T_b' = (p * T_b - sum_k (d_e * N_lk) * blocks[b][k]) / D,

over the k with N_lk != 0; when p = D that is
T_b - sum_k delta_k * blocks[b][k], with delta_k = d_e * N_lk / D the
integers the dual update adds.  Every slot of the numerator is D times the
integer slot of T_b', and packing is linear, so the packed division is
exact and the carried int is the one a sum from Y makes: Bland's path and
every byte stay as they were.  A pass reads a prefix of the blocks, up to
its entering one, and the next pass carries that prefix.  Every block
past it, every block of a phase's first pass and every block after a
widening (the carried ints are at the old width) is summed from Y.
``_slot_bound`` still runs before every pass and bounds the slots the
pass reads, carried or summed alike; a numerator's wider slots are never
read.

Columns are read in C.  The first time column j enters (or is read), its
block is unpacked once for all rows and its slots give ``_layout(j)``:
its nonzero rows and their values, two lists, and its l1 norm and entry
sum, read on every later read of the column.  A column whose n nonzero
slots are all 1, as every variable of a bound LP is, gets the values
``[1] * n`` and both sums n with no pass over them.  ``_column`` reads
N a_j as one packed sum of value times column of N,
``sum(map(mul, values, map(cols.__getitem__, rows)))``, or, when the l1
norm, the entry sum and the length are equal (every entry +1), as the
plain sum of those columns.

Every solve is certified before it is returned (``certify``): an optimal
primal point is checked against all constraints, the dual vector against
the derived dual program, and the two objective values are compared as
exact rationals.  Cached solutions pass the same ``certify`` on load, so a
cache hit costs the program key, one read of the entry (each distinct
number parsed once) and that one check.  The checks are fraction-free too:
they read the same integer rows as the simplex, scale a point by the lcm
of its denominators, and a dual y_i / s_i and the costs by one common
denominator, so every comparison and every objective value is an integer
sum.  A Fraction is built only for the lhs of a violation and for a
returned objective value.  A row whose coefficients are all equal
(``Row.unit``: caps, packing, total-mass and covering rows, nearly every
row of a bound LP) is read as that one number: its dot product with a
point is one sum times it, and it adds one product to each of its
columns' dual sums.  Scans that find nothing on a valid input (negative
coordinates, negative costs) take a C-level ``min`` first and loop only
when it fails.

A program has one form, built once: each row is held as its scale s_i,
its column indices in increasing order, the integer coefficients s_i * a_ij,
the integer rhs s_i * b_i and its relation, with s_i the lcm of the row's
denominators.  The objective is held the same way.  ``scaled_row`` is the
one place rows are scaled; the builders emit rows through it, or through
``unit_row`` for a row of unit coefficients and rational level, whose
integer form needs no scaling (the level's denominator and numerator are
coprime).  The simplex, the checkers and the cache key all read them.  A
row checks its own form (``Row.fault``) when it is made and encodes its
part of the cache key (``Row.key``) when a solve first keys it, so a
solve without a cache directory encodes none.  Its first solve works out
its standard form (``Row.standard``: the flip, sigma, the reduced rhs,
the flipped relation and rowmax), and the first solve at a price width
pw and n variables packs its price image, its coefficients in blocks as
above with no slack or artificial, about 2 bytes a variable at pw = 16.
``_Simplex.__init__`` only stitches: it copies each row's image, pads it
and adds the row's slack, surplus and artificial entries.  The builders
keep every row that depends only on the shape and a level (caps, total
mass, packing and per-point covering rows) with the shape and hand the
same ``Row`` to every program that needs it, so a shared row is neither
made, checked, encoded nor brought to standard form again per build or
solve; unit rows of one length and level share one coefficient tuple.
Variable names serve the records and the key only; a builder's shared
names are one ``Names``, checked for repeats and encoded for the key once.

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
import sys
from array import array
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import gcd, lcm
from operator import floordiv, gt, itemgetter, lt, mul, setitem

from .errors import InfeasibleConstructionError, LpboundsError, ParseError
from .rational import format_rational, parse_rational
from .records import Record, set_field

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

MAX_PIVOTS = 2_000_000


class Row(Record):
    """One row in integer form: sum_k coeffs[k] * x[cols[k]]  rel  rhs.

    It is the rational row times s > 0, the lcm of the row's denominators;
    ``cols`` increase and no coefficient is 0; ``scaled_row`` or ``unit_row`` makes it.
    What a row works out from its fields it works out once, so the
    shape-only rows that many programs share pay for it once: ``fault``
    and ``unit`` when it is made, ``key`` on its first keyed solve and
    ``standard`` on its first solve; none is a field.
    """

    s: int
    cols: tuple[int, ...]
    coeffs: tuple[int, ...]
    rel: str
    rhs: int
    label: str

    def __post_init__(self) -> None:
        """Set ``fault``, what breaks that form or None; ``unit``, the coefficient every
        column shares or None if they differ or the row is empty; and ``key`` and
        ``standard`` to None, for ``_row_key`` and ``_standard_form`` to fill.

        Caps, packing, total-mass and covering rows are all unit rows, so a
        dot product with a row is mostly one sum and one product.  Each is
        set here with ``set_field``, in one order, so every row keeps its
        attributes in the inline values that read fastest; a
        ``cached_property`` would write the instance ``__dict__`` and slow
        every later field read of the row.
        """
        cols, c = self.cols, self.coeffs
        if self.s <= 0 or 0 in c or len(cols) != len(c):
            fault = "needs a positive scale and one nonzero coefficient per column"
        else:
            fault = None if all(map(lt, cols, cols[1:])) else "has columns out of order"
        set_field(self, "fault", fault)
        set_field(self, "unit", c[0] if c and c.count(c[0]) == len(c) else None)
        set_field(self, "key", None)
        set_field(self, "standard", None)


def _row_key(row: Row) -> bytes:
    """``row.key``, set on first use: the row's part of ``_program_key``.

    Its relation, scale, rhs, length and coefficients as text (one
    coefficient for a unit row), then its columns as 8-byte little-endian
    integers.  Every program refuses a faulty row, so none is keyed.
    """
    c, unit = row.coeffs, row.unit
    coeffs = ("%d," * len(c) % c)[:-1] if unit is None else f"*{unit}"  # "%d" joins in C
    key = (f"{row.rel} {row.s} {row.rhs} {len(c)} {coeffs}\n".encode()
           + struct.pack(f"<{len(c)}q", *row.cols))
    set_field(row, "key", key)
    return key


def scaled_row(cols, nums, den: int, rel: str, rhs: int, label: str) -> Row:
    """The row sum_k (nums[k] / den) x_{cols[k]}  rel  rhs / den in integer form.

    ``cols`` increase and den > 0.  The lcm of the reduced denominators is
    den / g for g = gcd(den, rhs, *nums), so the row is divided by g; zero
    coefficients are dropped.
    """
    if 0 in nums:
        cols, nums = list(compress(cols, nums)), [a for a in nums if a]
    g = gcd(den, rhs, *nums)
    if g > 1:
        nums = [a // g for a in nums]
    return Row(den // g, tuple(cols), tuple(nums), rel, rhs // g, label)


_UNITS: dict[tuple[int, int], tuple[int, ...]] = {}


def unit_row(cols, rel: str, level: Fraction, label: str) -> Row:
    """sum_{j in cols} x_j  rel  level; rows of one length and level share their coefficients.

    In integer form every coefficient is the level's denominator and the rhs
    its numerator; the two are coprime, so ``scaled_row`` would divide by 1.
    """
    cols = tuple(cols)
    den, n = level.denominator, len(cols)
    coeffs = _UNITS.get((den, n)) or _UNITS.setdefault((den, n), (den,) * n)
    return Row(den, cols, coeffs, rel, level.numerator, label)


class Names(tuple):
    """Variable names, refused if any repeats; ``header`` is their part of the cache key.

    A builder that shares one names tuple among its programs makes it a
    ``Names`` once, so the check and the encoding are done once.
    """

    def __new__(cls, names):
        self = super().__new__(cls, names)
        if len(set(self)) != len(self):
            raise LpboundsError("duplicate variable names")
        return self

    @cached_property
    def header(self) -> bytes:
        """The names as a JSON list between the constant lines ``min`` and ``[]``."""
        return f"min\n{json.dumps(self)}\n[]\n".encode()


class LinearProgram(Record):
    """min cost . x subject to ``rows`` and x >= 0, in its one integer form.

    ``cost`` is the objective as a row (its relation and rhs unused) and
    ``rows`` the constraints.  Column j is ``variables[j]``; a tuple that is
    not yet ``Names`` is made one, so repeated names are refused on every build.
    """

    variables: tuple[str, ...]
    cost: Row
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        if type(self.variables) is not Names:
            set_field(self, "variables", Names(self.variables))
        n = len(self.variables)
        for r in (self.cost, *self.rows):
            if r.rel not in _RELS:
                raise LpboundsError(f"unknown relation {r.rel!r}")
            if r.fault:
                raise LpboundsError(f"row {r.label!r} {r.fault}")
            if r.cols and not 0 <= r.cols[0] <= r.cols[-1] < n:
                raise LpboundsError(f"row {r.label!r} has columns out of range")

    @property
    def constraints(self) -> tuple[Row, ...]:
        """``rows``; kept only because the benchmark harness reads ``len(program.constraints)``."""
        return self.rows

    def objective_value(self, assignment: dict[str, Fraction]) -> Fraction:
        return _point_value(self, *_scaled_point(self, assignment))


class Violation(Record):
    kind: str  # "constraint" | "domain" | "dual-sign" | "dual-column"
    index: int
    label: str
    lhs: Fraction
    rel: str
    rhs: Fraction


class LPSolution(Record):
    status = "optimal"  # every solve ends at an optimum; reports and cache entries hold it
    value: Fraction
    primal: dict[str, Fraction]
    dual: tuple[Fraction, ...]
    iterations: int
    phase1_iterations: int

    def to_record(self) -> dict:
        return {
            "status": self.status,
            "value": format_rational(self.value),
            "primal": {v: format_rational(c) for v, c in sorted(self.primal.items())},
            "dual": [format_rational(y) for y in self.dual],
            "iterations": self.iterations,
            "phase1_iterations": self.phase1_iterations,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_record(), sort_keys=True).encode()


def _scaled_point(lp: LinearProgram, assignment: dict[str, Fraction]) -> tuple[int, list[int]]:
    """L, the lcm of the assignment's denominators, and L * x by column.

    Missing variables are 0; names the program does not declare are dropped.
    """
    big_l = lcm(*(x.denominator for x in assignment.values()))
    scaled = {v: x.numerator * (big_l // x.denominator) for v, x in assignment.items()}
    return big_l, list(map(scaled.get, lp.variables, repeat(0)))


def _row_dot(row: Row, point: list[int]) -> int:
    """row . point, one product for a unit row."""
    terms = map(point.__getitem__, row.cols)
    return sum(map(mul, row.coeffs, terms)) if row.unit is None else row.unit * sum(terms)


def _point_value(lp: LinearProgram, big_l: int, point: list[int]) -> Fraction:
    """cost . x for the point L * x of ``_scaled_point``."""
    return Fraction(_row_dot(lp.cost, point), lp.cost.s * big_l)


def check_feasible(lp: LinearProgram, assignment: dict[str, Fraction]) -> list[Violation]:
    """every violated constraint with its exact slack; [] iff feasible.

    Variables missing from the assignment are treated as 0.  Row i scaled
    by s_i and the assignment by the lcm L of its denominators compare as
    integers; the Fraction lhs is built only for a violated row.
    """
    return _violations(lp, assignment, *_scaled_point(lp, assignment))


def _violations(
    lp: LinearProgram, assignment: dict[str, Fraction], big_l: int, point: list[int]
) -> list[Violation]:
    """``check_feasible`` on the point L * x of ``_scaled_point``."""
    out: list[Violation] = []
    for i, row in enumerate(lp.rows):
        lhs, rhs = _row_dot(row, point), row.rhs * big_l
        ok = lhs <= rhs if row.rel == LE else lhs >= rhs if row.rel == GE else lhs == rhs
        if not ok:
            out.append(Violation("constraint", i, row.label, Fraction(lhs, row.s * big_l),
                                 row.rel, Fraction(row.rhs, row.s)))
    if min(point, default=0) < 0:
        for j, v in enumerate(lp.variables):
            if point[j] < 0:
                out.append(Violation("domain", j, v, assignment[v], GE, Fraction(0)))
    return out


def check_dual_feasible(
    lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]
) -> list[Violation]:
    """Violations of the derived dual program for ``dual``; [] iff dual-feasible.

    Column sums are integers over one common denominator M of every
    y_i / s_i and every objective coefficient, as is M * c_j; a unit row
    adds one product to each of its columns.  The Fraction sum is built
    only for a violated column.
    """
    if len(dual) != len(lp.rows):
        raise LpboundsError("dual vector length does not match constraint count")
    out: list[Violation] = []
    # y_i * c_ij = (y_i / s_i) * a_ij on the integer row a_i = s_i * c_i
    weights = []
    for i, (y, row) in enumerate(zip(dual, lp.rows)):
        num = y.numerator
        if not num:
            continue
        # >= rows need y >= 0, <= rows need y <= 0
        if row.rel == GE and num < 0 or row.rel == LE and num > 0:
            out.append(Violation("dual-sign", i, row.label, y, row.rel, Fraction(0)))
        g = gcd(num, row.s)
        weights.append((num // g, y.denominator * (row.s // g), row))
    cost = lp.cost
    big_m = lcm(cost.s, *(den for _, den, _ in weights))
    n = len(lp.variables)
    col_sums = [0] * n
    for num, den, row in weights:
        w = num * (big_m // den)
        if row.unit is None:
            for j, a in zip(row.cols, row.coeffs):
                col_sums[j] += w * a
        else:
            w *= row.unit
            for j in row.cols:
                col_sums[j] += w
    costs = [0] * n
    for j, a in zip(cost.cols, cost.coeffs):
        costs[j] = a
    unit = big_m // cost.s
    over = compress(range(n), map(gt, col_sums, map(mul, costs, repeat(unit))))
    return out + [Violation("dual-column", j, lp.variables[j], Fraction(col_sums[j], big_m), LE,
                            Fraction(costs[j], cost.s)) for j in over]


def dual_objective(lp: LinearProgram, dual: tuple[Fraction, ...] | list[Fraction]) -> Fraction:
    """sum_i y_i b_i, summed as integers over one denominator."""
    pairs = [(y, row) for y, row in zip(dual, lp.rows) if y and row.rhs]
    big_m = lcm(*(y.denominator * row.s for y, row in pairs))
    return Fraction(sum(y.numerator * row.rhs * (big_m // (y.denominator * row.s))
                        for y, row in pairs), big_m)


def certify(lp: LinearProgram, sol: LPSolution) -> list[str]:
    """Every way ``sol`` fails to certify an optimum of ``lp``; [] iff it holds.

    It needs a feasible primal over declared variables, a feasible dual of
    matching length and equal primal, dual and reported values.
    """
    undeclared = sorted(set(sol.primal).difference(lp.variables))
    if undeclared:
        return [f"primal names undeclared variables {undeclared}"]
    if len(sol.dual) != len(lp.rows):
        return ["dual vector length does not match constraint count"]
    scaled = _scaled_point(lp, sol.primal)  # once, for the rows and the objective
    failures = [f"optimal primal failed re-check: {v}" for v in _violations(lp, sol.primal, *scaled)]
    failures += [f"optimal dual failed re-check: {v}" for v in check_dual_feasible(lp, sol.dual)]
    if _point_value(lp, *scaled) != sol.value:
        failures.append("primal objective differs from the reported value")
    if dual_objective(lp, sol.dual) != sol.value:
        failures.append("strong duality certificate failed")
    return failures


# columns priced by one big-int sum, and the slot width both packings start at
_BLOCK = 128
_WIDTH = 16

# w -> the typecode whose native array words are slots of w bits, where the host has one
_WORDS = {w: c for w, c in ((16, "h"), (32, "i"), (64, "q"))
          if sys.byteorder == "little" and array(c).itemsize * 8 == w}


def _offset(m: int, w: int) -> int:
    """2^(w-1) in each of m slots of w bits."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * m, "little")


def _slot_bytes(values, w: int) -> bytes:
    """``values`` as little-endian two's complement slots of w bits; a value too wide raises OverflowError."""
    if code := _WORDS.get(w):
        return array(code, values).tobytes()
    return b"".join(v.to_bytes(w // 8, "little", signed=True) for v in values)


def _blocks(values, size: int, w: int, off: int) -> list[int]:
    """``values`` packed ``size`` at a time, each block sum_i v_i * 2^(w*i); ``off`` is ``_offset(size, w)``.

    Each |v_i| < 2^(w-1).  Two's complement slots XOR the offset are
    v_i + 2^(w-1); taking the offset away leaves the signed sum.  The last
    block may be short.  It reads as if padded with zeros: its missing slots
    are 0, and 0 XOR the offset less the offset is 0.
    """
    raw, step = memoryview(_slot_bytes(values, w)), size * w // 8
    return [(int.from_bytes(raw[s:s + step], "little") ^ off) - off for s in range(0, len(raw), step)]


def _unpack(ints, slots: int, w: int, off: int) -> list[int]:
    """The slot values of every int of ``ints`` packed as ``_blocks`` packs them, ``slots`` each, in one flat list.

    Each |value| < 2^(w-1).  Adding the offset makes every slot
    nonnegative, so no slot borrows from the next; XOR takes it back off bit
    by bit, leaving two's complement slots.  This is the one reader of
    packed ints: N's columns and the price blocks alike.
    """
    raw = b"".join([((c + off) ^ off).to_bytes(slots * w // 8, "little") for c in ints])
    if code := _WORDS.get(w):
        return memoryview(raw).cast(code).tolist()
    k = w // 8
    return [int.from_bytes(raw[i:i + k], "little", signed=True) for i in range(0, len(raw), k)]


def _wider(w: int, need: int) -> int:
    """The first of w, 2w, 4w, ... whose room 2^(w-2) is above ``need``."""
    while need >= 1 << (w - 2):
        w *= 2
    return w


def _repack(ints, slots: int, w: int, off: int, wide: int) -> list[int]:
    """``ints``, each packed in ``slots`` slots of w bits with offset ``off``, packed again at ``wide`` bits."""
    return _blocks(_unpack(ints, slots, w, off), slots, wide, _offset(slots, wide))


_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


def _standard_form(row: Row) -> tuple:
    """``row.standard``, set on first use: (flip, sigma, rhs, rel, rowmax, images).

    The row is flipped to a nonnegative right-hand side (flip = -1 or 1)
    and divided by g = gcd(s, *coeffs), so sigma = s / g; rhs is
    flip * rhs / g as a (numerator, denominator) pair in lowest terms, rel
    the relation after the flip and rowmax the largest |entry| of the
    standard-form row, 1 at least for its slack or artificial.  images maps
    (pw, n), a price width and a variable count, to the row's
    ``_price_image``.  Every solve of a shared row reads what the first
    worked out.
    """
    flip = -1 if row.rhs < 0 else 1
    coeffs = row.coeffs if row.unit is None else (row.unit,)  # a unit row reads as one number
    g = gcd(row.s, *coeffs)
    h = gcd(g, row.rhs)
    form = (flip, row.s // g, (flip * row.rhs // h, g // h), row.rel if flip > 0 else _FLIPPED[row.rel],
            max(1, max(map(abs, coeffs), default=0) // g), {})
    set_field(row, "standard", form)
    return form


def _price_image(row: Row, w: int, n: int) -> list[int]:
    """The row's coefficients on n variables, flipped and divided by g, packed in blocks of w-bit slots.

    The image is kept in ``row.standard``'s images under (w, n); it holds
    no slack or artificial, so every program with n variables that holds
    the row shares it.
    """
    flip, sigma, *_, images = row.standard
    code = _WORDS.get(w)
    values = array(code, bytes(n * w // 8)) if code else [0] * n
    # flip * g; g = s / sigma divides every coefficient, so each quotient is exact
    q = flip * (row.s // sigma)
    quotients = (map(floordiv, row.coeffs, repeat(q)) if row.unit is None
                 else repeat(row.unit // q, len(row.cols)))
    deque(map(setitem, repeat(values), row.cols, quotients), 0)
    images[w, n] = image = _blocks(values, _BLOCK, w, _offset(_BLOCK, w))
    return image


class _Simplex:
    """Integer standard form and basis state for one solve; used once."""

    def __init__(self, lp: LinearProgram):
        """The standard form, stitched from each row's ``standard`` and price image.

        Row i's blocks are a copy of its image at (pw, n_real), padded with
        zero blocks, with each of its slack, surplus and artificial entries
        a added as a << (pw * k) to its block, k the column's slot there:
        packing is linear, so that is the dense packing.  A later widening
        repacks ``blocks`` into new ints and leaves every image as it was.
        """
        self.lp = lp
        m = self.m = len(lp.rows)
        self.n_real = len(lp.variables)
        forms = [row.standard or _standard_form(row) for row in lp.rows]
        self.flip: list[int] = [form[0] for form in forms]
        self.sigma: list[int] = [form[1] for form in forms]  # the lcm of row i's coefficient denominators
        rhs = [form[2] for form in forms]  # flip * rhs_i / g_i in lowest terms
        rels = [form[3] for form in forms]
        self.rowmax: list[int] = [form[4] for form in forms]  # the largest |entry| of each standard-form row
        self.reach = sum(self.rowmax)  # >= the l1 norm of every column
        self.lb = lcm(*(den for _, den in rhs))  # L_b, one common denominator of b
        self.x: list[int] = [num * (self.lb // den) for num, den in rhs]  # xd * L_b * x_B
        self.xd = 1  # the determinant x was last written at, > 0

        # columns: one per variable, then a slack or surplus per inequality row, then an
        # artificial per >= and = row, each in row order; the basis starts at the last of
        # a row's own columns
        self.n_structural = self.n_real + sum(rel != EQ for rel in rels)
        own: list[list[tuple[int, int]]] = []
        slack, artificial = self.n_real, self.n_structural
        for rel in rels:
            own.append([])
            if rel != EQ:
                own[-1].append((slack, 1 if rel == LE else -1))
                slack += 1
            if rel != LE:
                own[-1].append((artificial, 1))
                artificial += 1
        self.n_total = artificial
        self.basis: list[int] = [cols[-1][0] for cols in own]
        artificial_rows = [i for i in range(m) if self.basis[i] >= self.n_structural]

        # integer costs: L * cost, L the lcm of the phase's denominators
        self.l2 = lp.cost.s
        self.cost2 = [0] * self.n_total
        for j, a in zip(lp.cost.cols, lp.cost.coeffs):
            self.cost2[j] = a
        l1 = lcm(*(self.sigma[i] for i in artificial_rows))
        self.cost1 = [0] * self.n_structural + [l1 // self.sigma[i] for i in artificial_rows]

        # each row of the standard form packed in blocks, in slots wide enough for its
        # widest coefficient: its image, padded, with its own columns added
        self._set_price_width(_wider(_WIDTH, self.reach))
        w, n, size = self.pw, self.n_real, -(-self.n_total // _BLOCK)
        packed = []
        for row, form, entries in zip(lp.rows, forms, own):
            image = form[5].get((w, n))
            if image is None:
                image = _price_image(row, w, n)
            blocks = image + [0] * (size - len(image))
            for j, a in entries:
                b, k = divmod(j, _BLOCK)
                blocks[b] += a << (w * k)
            packed.append(blocks)
        # blocks[b][i] is row i's block b, so one sum over the rows prices a block
        self.blocks: list[tuple[int, ...]] = list(zip(*packed)) or [()] * size
        self.layouts: dict[int, tuple] = {}  # column j's layout, read when first asked for
        self.unpacked: dict = {}  # block b's slots, row after row, once one of its columns is read

        self._set_width(_WIDTH)
        self.cols: list[int] = [(1 << (self.w * k)) + self.off for k in range(m)]  # column k of N, packed + off
        self.bound = 1  # >= |every entry of N|
        self.d = 1
        self.y: list[int] = []  # L * D * duals of the last phase run
        self.iterations = 0

    def _set_width(self, w: int) -> None:
        """Slots of w bits; a value to unpack must stay below room = 2^(w-2)."""
        self.w, self.off, self.room = w, _offset(self.m, w), 1 << (w - 2)

    def _set_price_width(self, w: int) -> None:
        """Pricing slots of w bits; a value read from a block must stay below 2^(w-2)."""
        self.pw, self.poff = w, _offset(_BLOCK, w)

    def _fit_prices(self, need: int) -> None:
        """Make ``need`` < 2^(pw-2): repack every block once, at the first of 2 pw, 4 pw, ... that clears it."""
        w = _wider(self.pw, need)
        if w != self.pw:
            self.blocks = [tuple(_repack(block, _BLOCK, self.pw, self.poff, w)) for block in self.blocks]
            self._set_price_width(w)

    def _slot_bound(self, base: int, weights: list[int], room: int) -> int:
        """A bound on |base_j - sum_i weights_i a_ij| over every column j, for any base_j of size <= ``base``.

        First the cheap one, base + reach max |weights_i|; if it is not
        below ``room``, the tighter base + sum_i |weights_i| rowmax_i, which
        costs m products.  Both hold, as |a_ij| <= rowmax_i.
        """
        need = base + self.reach * max(map(abs, weights), default=0)
        if need >= room:
            need = base + sum(map(mul, map(abs, weights), self.rowmax))
        return need

    def _masks(self, limit: int) -> list[int]:
        """Per block, the bits of its slots for the columns below ``limit``."""
        full, last = divmod(limit, _BLOCK)
        w = self.pw
        return [(1 << (w * _BLOCK)) - 1] * full + ([(1 << (w * last)) - 1] if last else [])

    def _layout(self, j: int) -> tuple[list[int], list[int], int, int]:
        """Column j as its nonzero rows and their values, two lists, then its l1 norm and its entry sum.

        All four are read the first time they are asked for, from the slots
        of column j's block, which is unpacked once for every row; only the
        blocks of columns that enter or are audited are unpacked.  The two
        sums are what ``_column`` reads on every read of the column; a column
        whose nonzero slots are all 1 gets them, and its values, from its
        length.  rows and values are lists, not tuples: CPython keeps up to
        2000 freed tuples of each length below 20, so the short tuples of a
        finished solve would hold their memory for the life of the process.
        """
        layout = self.layouts.get(j)
        if layout is None:
            b, k = divmod(j, _BLOCK)
            flat = self.unpacked.get(b)
            if flat is None:  # row after row
                flat = self.unpacked[b] = _unpack(self.blocks[b], _BLOCK, self.pw, self.poff)
            column = flat[k::_BLOCK]
            rows = list(compress(range(self.m), column))
            n = len(rows)
            if column.count(1) == n:  # every nonzero slot is 1, as in every bound LP's variables
                layout = self.layouts[j] = (rows, [1] * n, n, n)
            else:
                values = list(compress(column, column))
                layout = self.layouts[j] = (rows, values, sum(map(abs, values)), sum(values))
        return layout

    def _measure(self) -> int:
        """A power of two B, max |N_ik| <= B <= max(1, 2 max |N_ik|), read from the columns as they are.

        B is the least 2^t with every value in [-2^t, 2^t): exactly then
        adding 2^t to each slot leaves its bits above t clear, as no slot
        borrows.  A held column already carries 2^(w-1) in each slot, so
        the lift adds 2^t less that offset.  t only grows, so each column is
        tested once plus once per doubling; every slot is below the room 2^(w-2).
        """
        w, cols, m = self.w, self.cols, self.m
        one, k = self.off >> (w - 1), 0
        for t in range(w - 2):
            lift, high = (one << t) - self.off, one * ((1 << w) - (2 << t))
            while k < m and not (cols[k] + lift) & high:
                k += 1
            if k == m:
                return 1 << t
        return 1 << (w - 2)

    def _measure_exactly(self) -> int:
        """max |N_ik|, all m^2 slots read in one pass."""
        return max(map(abs, _unpack(self._plain(), self.m, self.w, self.off)), default=0)

    def _plain(self) -> list[int]:
        """N's columns as plain packed ints, the held offset taken off."""
        off = self.off
        return [c - off for c in self.cols]

    def _fit(self, need) -> None:
        """Make need(M) < 2^(w-2) for a fresh M: ``_measure``'s power of two if need clears it on that,
        else the exact M, widening once, to the first of 2w, 4w, ... that clears it."""
        self.bound = self._measure()
        if need(self.bound) >= self.room:
            self.bound = self._measure_exactly()
            w = _wider(self.w, need(self.bound))
            if w != self.w:
                cols = _repack(self._plain(), self.m, self.w, self.off, w)
                self._set_width(w)
                self.cols[:] = [c + self.off for c in cols]

    def _column(self, j: int) -> tuple[list[int], int]:
        """u = N * a_j, i.e. D times the basic direction of column j, and u packed.

        The packed u is the sum of a_ij times held column i over a_j's
        nonzero rows, less (sum_i a_ij) * off, the offsets that sum carries;
        one unpack reads every row, and a pivot on u reuses it.  The l1
        norm and the entry sum come with the layout, summed once per solve.
        """
        rows, values, reach, total = self._layout(j)  # |u_i| <= M * reach
        if self.bound * reach >= self.room:
            self._fit(lambda big: big * reach)
        held = map(self.cols.__getitem__, rows)
        # an l1 norm equal to the entry sum and the length means every entry is +1
        packed = sum(held) if reach == total == len(rows) else sum(map(mul, values, held))
        packed -= total * self.off
        return _unpack([packed], self.m, self.w, self.off), packed

    def _row(self, i: int) -> tuple[list[int], list[int]]:
        """Row i of N at the current D, and the columns where it is nonzero.

        Every held slot is nonnegative, its value plus 2^(w-1), so slot i of
        a held column reads alone after one shift and one mask.
        """
        shift, half = self.w * i, 1 << (self.w - 1)
        mask = 2 * half - 1
        row = [(c >> shift & mask) - half for c in self.cols]
        return row, list(compress(range(self.m), row))

    def _duals(self, cost: list[int]) -> list[int]:
        """Y = L * D * y = c_B N, one entry per column of N."""
        m, cb = self.m, [cost[j] for j in self.basis]
        flat = _unpack(self._plain(), m, self.w, self.off)
        return [sum(map(mul, cb, flat[k * m:k * m + m])) for k in range(m)]

    def _pivot(self, l: int, u: list[int], packed: int) -> tuple[list[int], list[int]]:
        """Exchange the basic column of row ``l`` for the column with N * a = u, ``packed`` as ``_column`` reads it.

        Held column k becomes (p' * cols[k] - s_r) / d', with g = gcd(p, D),
        p' = p / g, d' = D / g and s_r = r * u' / g + (p' - d') * off made
        once per distinct r = N_lk; the division is skipped when d' = 1 and
        is a shift when d' is a power of two.  When p = D only the columns
        where row l is nonzero move.  Returns row l of N as it was and those
        columns, which the dual update reads.  x is rewritten only when
        x_l != 0.
        """
        p, d, cols, w = u[l], self.d, self.cols, self.w
        row, touched = self._row(l)
        # max |N_lk| and max |u_i| read over the nonzeros; neither is all 0 (N is invertible, u_l = p)
        top, spread = max(map(abs, compress(row, row))), max(map(abs, compress(u, u)))
        abs_p, abs_d = abs(p), abs(d)
        # |N'_ik| <= (|p| M + |u_i| |N_lk|) / |D|
        bound = max(top, -(-(abs_p * self.bound + spread * top) // abs_d))
        if bound >= self.room:
            def need(big: int) -> int:
                return max(top, -(-(abs_p * big + spread * top) // abs_d))

            self._fit(need)
            bound = need(self.bound)
            if self.w != w:  # the slots were widened: pack u again at the new width
                w, packed = self.w, _blocks(u, self.m, self.w, self.off)[0]
        self.bound = bound
        # u with slot l at p - D: (p * N_lk - (p - D) * N_lk) / D keeps row l
        packed_u = packed - (d << (w * l))
        # s_r once per distinct r = N_lk, s_0 first; g divides every slot of r * u', and where g
        # divides r the division is one of small ints
        g = gcd(p, d)
        pg, dg = p // g, d // g
        steps = {0: (pg - dg) * self.off}
        for k in touched:
            r = row[k]
            if r not in steps:
                steps[r] = (r // g * packed_u if r % g == 0 else r * packed_u // g) + steps[0]
        if p == d:  # p' = d' = 1 and s_0 = 0: only the touched columns move
            for k in touched:
                cols[k] -= steps[row[k]]
        elif dg == 1:
            cols[:] = [pg * c - steps[r] for c, r in zip(cols, row)]
        elif dg & (dg - 1):
            cols[:] = [(pg * c - steps[r]) // dg for c, r in zip(cols, row)]
        else:  # d' a power of two
            t = dg.bit_length() - 1
            cols[:] = [(pg * c - steps[r]) >> t for c, r in zip(cols, row)]
        xl = self.x[l]
        if xl:  # x' = (p * x - x_l * u) / xd, x_l brought to D; only _iterate gets here, with p > 0
            xd = self.xd
            x = self.x = [(p * a - b * xl) // xd for a, b in zip(self.x, u)]
            x[l] = xl * d // xd
            self.xd = p
        self.d = p
        return row, touched

    def _drive_out_artificials(self) -> None:
        """Pivot zero-level artificials out of the basis where possible.

        Row i's replacement is the lowest structural column j with
        (N a_j)_i = row_i . a_j != 0, read block by block as the nonzero slots
        of sum_k N_ik A_k; a basic column reads 0 there, as N a_j = D e_k.
        Rows whose artificial cannot be replaced are linearly dependent on
        the rest; their basic value can never move, so leaving the
        artificial in place is safe.  Without this step a later pivot could
        push a basic artificial positive and silently break feasibility.
        The pivot element may be negative here; D and every column of N
        are then negated, a held column c to 2 * off - c, so D stays > 0
        and N / D is unchanged.  Every basic artificial is at level 0 here,
        so each pivot is degenerate and leaves x and xd > 0 as they are.
        """
        for i in range(self.m):
            if self.basis[i] < self.n_structural:
                continue
            row_i, _ = self._row(i)
            self._fit_prices(self._slot_bound(0, row_i, 1 << (self.pw - 2)))  # |row_i . a_j|
            w, off = self.pw, self.poff
            for b, mask in enumerate(self._masks(self.n_structural)):
                if z := (sum(map(mul, row_i, self.blocks[b])) + off ^ off) & mask:
                    j = b * _BLOCK + ((z & -z).bit_length() - 1) // w
                    assert not self.x[i]  # degenerate, so x and xd stay
                    self._pivot(i, *self._column(j))
                    if self.d < 0:  # N / D = (-N) / (-D)
                        twice = 2 * self.off
                        self.d, self.cols = -self.d, [twice - c for c in self.cols]
                    self.basis[i] = j
                    break

    def _iterate(self, cost: list[int], limit: int) -> None:
        """Run simplex to optimality.

        Bland's rule prices a block of ``_BLOCK`` columns at a time: with
        the costs packed like the rows, D * C_b - sum_i Y_i A_ib holds L * D
        times the reduced cost of every column of block b, a basic one 0.
        Before a pass reads a block, ``_slot_bound`` bounds every one of
        those, by D max c + reach max |Y| or, where that is not below
        2^(pw-2), by D max c + sum_i |Y_i| rowmax_i; only if that is not
        below 2^(pw-2) either are the blocks widened until it is, and the
        costs packed again.  Adding the offset leaves a slot's top bit
        clear exactly where its reduced cost is negative, the lowest such
        bit below ``limit`` names the entering column, and that slot less
        the offset is the d_e of the dual update.

        ``sums`` keeps T_b = D * C_b - sum_i Y_i A_ib, unoffset, for the
        first ``held`` blocks, the ones the last pass read.  The next pass
        carries each of them through the pivot row, as
        T_b - sum_k delta_k A_kb when p = D (``deltas`` are the
        delta_k = d_e N_lk / D the dual update adds) and else as
        (p T_b - sum_k d_e N_lk A_kb) / D, exact because every slot of the
        numerator is D times an integer; k runs over the rows where
        N_lk != 0, which ``pick`` reads.  A block past the prefix, every
        block of the first pass and every block after a widening is summed
        from Y.  The bound above is checked before every pass and holds
        the final slots, so a carried block is read as safely as a summed
        one.

        Both phases minimise a cost >= 0 (phase 1 the artificials, phase 2
        the program's own, as ``solve`` checks), so an improving column
        always meets a leaving row; one that does not is a solver bug.
        """
        m, basis, d = self.m, self.basis, self.d
        # before the first pivot N = I and D = 1, so Y = c_B N is c_B itself
        y = self._duals(cost) if self.iterations else [cost[j] for j in basis]
        top, room = max(cost, default=0), 0  # room 0 packs the costs on the first pass
        sums = [0] * len(self.blocks)  # T_b of the first ``held`` blocks, as the last pass read them
        while True:
            self.iterations += 1
            if self.iterations > MAX_PIVOTS:
                raise LpboundsError(
                    f"pivot cap exceeded: more than MAX_PIVOTS = {MAX_PIVOTS} pricing passes"
                )
            last, d = d, self.d  # the D the last pass read at, and this pass's
            need = self._slot_bound(d * top, y, room)
            if need >= room:
                self._fit_prices(need)
                w, off = self.pw, self.poff
                room, mask, half, held = 1 << (w - 2), (1 << w) - 1, 1 << (w - 1), 0
                # per block: its costs, its rows and the top bit of each slot below limit
                priced = list(zip(_blocks(cost, _BLOCK, w, off), self.blocks,
                                  [off & b for b in self._masks(limit)]))
            for b, (c_b, a_b, top_bits) in enumerate(priced):
                if b < held:  # carried through the pivot row: |touched| products
                    s = sum(map(mul, deltas, pick(a_b)))
                    t = sums[b] - s if d == last else (d * sums[b] - s) // last
                else:
                    t = d * c_b - sum(map(mul, y, a_b))
                sums[b] = t
                t += off
                if neg := ~t & top_bits:
                    k = (neg & -neg).bit_length() // w - 1
                    enter, d_e = b * _BLOCK + k, (t >> (w * k) & mask) - half  # L * D * reduced cost
                    held = b + 1
                    break
            else:
                self.y = y
                return
            (u, packed), x = self._column(enter), self.x
            # ratio x_i / u_i over u_i > 0, compared by cross-multiplying; x at xd > 0 keeps their order
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
            row, touched = self._pivot(leave, u, packed)
            # the entries k where N_lk != 0, of row l and of a block's rows A_kb; a lone index
            # would get the entry itself, a one-wide slice gets it in a sequence
            pick = itemgetter(*touched) if len(touched) > 1 else itemgetter(slice(touched[0], touched[0] + 1))
            if p == d:  # Y' = Y + d_e * N_l / D changes only where row l is nonzero
                deltas = [d_e * r // d for r in pick(row)]
                for k, delta in zip(touched, deltas):
                    y[k] += delta
            else:
                deltas = [d_e * r for r in pick(row)]
                y = [(a * p + d_e * b) // d for a, b in zip(y, row)]
            basis[leave] = enter

    def run(self) -> LPSolution:
        """Both phases; the optimum is returned uncertified.

        A positive artificial at the end of phase 1 means no point meets the
        rows, which no bound LP allows: that raises.
        """
        phase1_iterations = 0
        if self.n_total > self.n_structural:
            self._iterate(self.cost1, self.n_total)
            phase1_iterations = self.iterations
            if any(self.x[i] for i in range(self.m) if self.basis[i] >= self.n_structural):
                raise InfeasibleConstructionError(
                    f"infeasible LP: an artificial stays positive after {phase1_iterations} phase-1 pivots")
            self._drive_out_artificials()

        self._iterate(self.cost2, self.n_structural)
        x_den = self.xd * self.lb
        basic = sorted((j, xi) for j, xi in zip(self.basis, self.x) if xi and j < self.n_real)
        primal = {self.lp.variables[j]: Fraction(xi, x_den) for j, xi in basic}
        # cost . x from the basis: sum of L * c_j * (xd * L_b * x_j) over L * xd * L_b
        value = Fraction(sum(map(mul, map(self.cost2.__getitem__, self.basis), self.x)),
                         self.l2 * x_den)
        return LPSolution(value, primal, tuple(self._row_duals()), self.iterations, phase1_iterations)

    def _row_duals(self) -> list[Fraction]:
        """The phase-2 duals of the program's rows: L * D, sigma_i and the flip undone."""
        den = self.l2 * self.d
        return [Fraction(f * s * y, den) for f, s, y in zip(self.flip, self.sigma, self.y)]


_cache_dir: str | None = None


def set_cache_dir(path: str | None) -> None:
    """Enable (or disable with None) on-disk caching of LP solutions."""
    global _cache_dir
    _cache_dir = path


def _program_key(lp: LinearProgram) -> str:
    """sha256 of a canonical encoding of the integer form.

    The names' ``header`` comes first, whose constant lines keep keys equal
    to those of existing cache entries, then each row's ``key``, the
    objective first, each encoded by ``_row_key`` the first time its row is
    keyed.  The row labels play no part.
    """
    h = hashlib.sha256(lp.variables.header)
    h.update(lp.cost.key or _row_key(lp.cost))
    h.update(b"".join([r.key or _row_key(r) for r in lp.rows]))
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
    try:  # each distinct text once: most duals are 0, and values repeat
        parsed = {t: parse_rational(t) for t in {value, *primal.values(), *dual}}
    except ParseError:
        return None
    return LPSolution(parsed[value], {v: parsed[c] for v, c in primal.items()},
                      tuple(map(parsed.__getitem__, dual)), *counts)


def _cache_load(lp: LinearProgram, path: str) -> LPSolution | None:
    """The solution cached at ``path`` if it certifies for ``lp``; any other entry is a miss."""
    try:
        with open(path, "rb") as fh:
            sol = _solution_from_record(json.loads(fh.read()))
    except (OSError, ValueError, RecursionError):  # missing, unreadable, not JSON or nested too deep
        return None
    # never trust the cache blindly: the entry must certify itself
    if sol is None or certify(lp, sol):
        return None
    return sol


def _cache_store(path: str, sol: LPSolution) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # a temp name of its own, so concurrent writers never share one
    tmp = f"{path}.{os.urandom(16).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(sol.to_record(), fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def solve(lp: LinearProgram) -> LPSolution:
    """The optimum of ``lp``, exactly; it has passed ``certify`` before it is returned.

    A program with a negative cost coefficient is refused, before it is
    keyed: with cost >= 0 and x >= 0 no optimum is below 0.  An infeasible
    program raises ``InfeasibleConstructionError`` and caches nothing.  The
    optimum carries a primal point and a dual certificate that pass
    ``check_feasible`` and ``check_dual_feasible`` with equal objective
    values.  With a cache directory set, the program is keyed once and the
    key serves both the load and the store.
    """
    cost = lp.cost
    if min(cost.coeffs, default=0) < 0:
        j, a = next((j, a) for j, a in zip(cost.cols, cost.coeffs) if a < 0)
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
