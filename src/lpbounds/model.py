"""Domain model: Boolean functions, product measures, rectangles, subcubes.

Conventions
-----------
Two-party functions live on X x Y with X, Y index sets {0, .., nx-1},
{0, .., ny-1} whose sizes are powers of two (at most 16).  Rectangles are
pairs of bitmasks (rows, cols); cell (x, y) belongs to the rectangle iff
bit x of ``rows`` and bit y of ``cols`` are set.

Query functions live on {0,1}^n with n <= 12; an input is the integer
whose bit i is the i-th coordinate.  A subcube is a pair of bitmasks
(support, values) with values a submask of support: x is a member iff
``x & support == values``.  The size |A| of a subcube is the number of
fixed coordinates, i.e. popcount(support).  ``Subcube`` carries the pair
with its bit count; ``project_weights``, the one subcube projection, takes
weighted subcubes keyed by the bare (support, values) pair (``Masks``).

Measures are exact rationals and are *not* required to be normalized;
``ProductDistribution2P`` totals may be any non-negative rational, while
``BitProductDistribution`` is normalized by construction (each coordinate
carries a marginal p_i in [0,1] whose complement is 1 - p_i).  A measure
is its integer ``point_weights`` (D, W) over one denominator D, the
``label_sums`` of ``_PointMeasure`` (D times the two label masses of a
region) and one ``check_shape``, the only code that refuses a function or
region of another shape than the measure's.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterator, TypeVar

from .errors import CapExceededError, DimensionMismatchError
from .rational import numerators
from .records import Record, set_field

RECTANGLE_VARIABLE_CAP = 1 << 20
MAX_QUERY_BITS = 12
MAX_TABLE_SIDE = 16

Masks = tuple[int, int]  # a subcube's (support, values); a region is the subcube its fixed bits span
Weight = TypeVar("Weight", int, Fraction)


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


class TwoPartyFunction(Record):
    """Total Boolean function f : X x Y -> {0,1} as an explicit bit matrix."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        nx = len(self.table)
        if nx == 0:
            raise DimensionMismatchError("empty truth table")
        ny = len(self.table[0])
        if not (_is_power_of_two(nx) and nx <= MAX_TABLE_SIDE):
            raise DimensionMismatchError(
                f"|X| must be a power of two <= {MAX_TABLE_SIDE}, got {nx}"
            )
        if not (_is_power_of_two(ny) and ny <= MAX_TABLE_SIDE):
            raise DimensionMismatchError(
                f"|Y| must be a power of two <= {MAX_TABLE_SIDE}, got {ny}"
            )
        for row in self.table:
            if len(row) != ny:
                raise DimensionMismatchError("ragged truth table")
            for v in row:
                if v not in (0, 1):
                    raise DimensionMismatchError(f"table entries must be bits, got {v!r}")

    @property
    def nx(self) -> int:
        return len(self.table)

    @property
    def ny(self) -> int:
        return len(self.table[0])

    @cached_property
    def labels(self) -> tuple[int, ...]:  # f(x, y) at cell x * ny + y, x-major
        return tuple(v for row in self.table for v in row)

    def value(self, x: int, y: int) -> int:
        return self.table[x][y]


class QueryFunction(Record):
    """Total Boolean function g : {0,1}^n -> {0,1} as a flat truth table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUERY_BITS:
            raise DimensionMismatchError(
                f"bit count must be in [1, {MAX_QUERY_BITS}], got {self.n}"
            )
        if len(self.table) != 1 << self.n:
            raise DimensionMismatchError(
                f"table length {len(self.table)} != 2^{self.n}"
            )
        for v in self.table:
            if v not in (0, 1):
                raise DimensionMismatchError(f"table entries must be bits, got {v!r}")

    @property
    def labels(self) -> tuple[int, ...]:  # g(x) at point x
        return self.table

    def value(self, x: int) -> int:
        return self.table[x]


class Rectangle(Record):
    """Combinatorial rectangle rows x cols, as bitmasks; may be empty."""

    rows: int
    cols: int

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 0 or cols < 0:
            raise DimensionMismatchError("rectangle masks must be non-negative")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)

    def contains(self, x: int, y: int) -> bool:
        return bool((self.rows >> x) & 1 and (self.cols >> y) & 1)

    def is_empty(self) -> bool:
        return self.rows == 0 or self.cols == 0

    def intersect(self, other: "Rectangle") -> "Rectangle":
        return Rectangle(self.rows & other.rows, self.cols & other.cols)


class Subcube(Record):
    """Subcube of {0,1}^n: all x with x & support == values.

    ``values`` must be a submask of ``support``; the support size is the
    number of fixed coordinates.
    """

    n: int
    support: int
    values: int

    def __init__(self, n: int, support: int, values: int) -> None:
        if not 0 <= support <= (1 << n) - 1:
            raise DimensionMismatchError("support mask out of range")
        if values & ~support:
            raise DimensionMismatchError("values must be a submask of support")
        set_field(self, "n", n)
        set_field(self, "support", support)
        set_field(self, "values", values)

    @property
    def size(self) -> int:
        return self.support.bit_count()

    def contains(self, x: int) -> bool:
        return (x & self.support) == self.values

    def members(self) -> Iterator[int]:
        """The points of the subcube, ascending."""
        free = ((1 << self.n) - 1) ^ self.support
        sub = 0
        while True:  # the submasks of ``free``, ascending
            yield self.values | sub
            if sub == free:
                return
            sub = (sub - free) & free

    def intersect(self, other: "Subcube") -> "Subcube | None":
        """Intersection subcube, or None when fixed coordinates conflict."""
        if self.n != other.n:
            raise DimensionMismatchError("subcubes over different bit counts")
        common = self.support & other.support
        if (self.values ^ other.values) & common:
            return None
        return Subcube(
            self.n, self.support | other.support, self.values | other.values
        )

    def pattern(self) -> str:
        """Textual pattern over ``01*``, coordinate 0 leftmost."""
        out = []
        for i in range(self.n):
            if (self.support >> i) & 1:
                out.append("1" if (self.values >> i) & 1 else "0")
            else:
                out.append("*")
        return "".join(out)

    @staticmethod
    def from_pattern(text: str) -> "Subcube":
        support = 0
        values = 0
        for i, ch in enumerate(text):
            if ch == "*":
                continue
            if ch not in "01":
                raise DimensionMismatchError(f"bad pattern character {ch!r}")
            support |= 1 << i
            if ch == "1":
                values |= 1 << i
        return Subcube(len(text), support, values)


class _PointMeasure:
    """The label sums of both measures, over integer point weights.

    A measure supplies ``point_weights`` (D, W), W[p] = D * mu(p) an integer
    at each point p, and ``_points(fn, region)``, a region's points after
    its ``check_shape``, indexed as ``fn.labels``.
    """

    def label_sums(self, fn, region) -> tuple[int, int]:
        """(D * mu_0(region), D * mu_1(region)), mu_z = mu(region & fn^-1(z)), summed as integers."""
        weights, labels = self.point_weights[1], fn.labels
        sums = [0, 0]
        for p in self._points(fn, region):
            sums[labels[p]] += weights[p]
        return sums[0], sums[1]


class ProductDistribution2P(Record, _PointMeasure):
    """Product measure mu(x, y) = row_weights[x] * col_weights[y].

    Weights are non-negative rationals; the total mass may be any
    non-negative rational (normalization is never implicit).
    """

    row_weights: tuple[Fraction, ...]
    col_weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for w in self.row_weights + self.col_weights:
            if w < 0:
                raise DimensionMismatchError(f"negative weight {w}")

    @property
    def nx(self) -> int:
        return len(self.row_weights)

    @property
    def ny(self) -> int:
        return len(self.col_weights)

    @cached_property
    def total(self) -> Fraction:
        """The total mass, sum_x sum_y mu(x, y) = sum(W) / D."""
        den, weights = self.point_weights
        return Fraction(sum(weights), den)

    @cached_property
    def point_weights(self) -> tuple[int, tuple[int, ...]]:
        """(D, W): D = lcm(row dens) * lcm(column dens), W[x * ny + y] = D * mu(x, y)."""
        dr, rows = numerators(self.row_weights)
        dc, cols = numerators(self.col_weights)
        return dr * dc, tuple(r * c for r in rows for c in cols)

    def check_shape(self, f: TwoPartyFunction, rect: Rectangle | None) -> None:
        """Refuse a function on another table shape than the measure's, or a rectangle (None for none) past it."""
        if self.nx != f.nx or self.ny != f.ny:
            raise DimensionMismatchError(
                f"measure is {self.nx}x{self.ny} but function is {f.nx}x{f.ny}"
            )
        if rect is not None and (rect.rows >> f.nx or rect.cols >> f.ny):
            raise DimensionMismatchError(f"rectangle reaches past the table: measure {self.nx}x{self.ny}, "
                                         f"rectangle {rect.rows:x}_{rect.cols:x}")

    def _points(self, f: TwoPartyFunction, rect: Rectangle) -> list[int]:
        self.check_shape(f, rect)
        ys = [y for y in range(self.ny) if (rect.cols >> y) & 1]
        return [x * self.ny + y for x in range(self.nx) if (rect.rows >> x) & 1 for y in ys]

    @staticmethod
    def uniform(nx: int, ny: int) -> "ProductDistribution2P":
        """Normalized uniform measure: each cell carries 1/(nx*ny)."""
        return ProductDistribution2P(
            tuple(Fraction(1, nx) for _ in range(nx)),
            tuple(Fraction(1, ny) for _ in range(ny)),
        )


class BitProductDistribution(Record, _PointMeasure):
    """Bit-wise product measure on {0,1}^n: mu(x) = prod_i p_i(x_i).

    ``p[i]`` is the probability that coordinate i equals 1; the complement
    probability is 1 - p[i], so the measure is normalized by construction.
    """

    p: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for q in self.p:
            if not 0 <= q <= 1:
                raise DimensionMismatchError(f"marginal {q} outside [0,1]")

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def point_weights(self) -> tuple[int, tuple[int, ...]]:
        """(D, W): D = prod_i den(p_i) and W[x] = D * mu(x), an integer.

        W[x] is prod_i (num(p_i) if x_i = 1 else den(p_i) - num(p_i)).
        """
        weights = [1]
        for q in self.p:
            zero, one = q.denominator - q.numerator, q.numerator
            weights = [w * zero for w in weights] + [w * one for w in weights]
        return prod(q.denominator for q in self.p), tuple(weights)

    def check_shape(self, g: QueryFunction, cube: Subcube | None) -> None:
        """Refuse a function, or a subcube of it (None for none), over another bit count than the measure's."""
        if self.n != g.n or (cube is not None and cube.n != g.n):
            of_cube = "" if cube is None else f", subcube {cube.n}"
            raise DimensionMismatchError(
                f"bit counts disagree: measure {self.n}, function {g.n}{of_cube}"
            )

    def _points(self, g: QueryFunction, cube: Subcube) -> Iterator[int]:
        self.check_shape(g, cube)
        return cube.members()

    def fixed_cube(self) -> Subcube:
        """The points consistent with the coordinates whose marginal is 0 or 1."""
        support = sum(1 << i for i, q in enumerate(self.p) if q == 0 or q == 1)
        ones = sum(1 << i for i, q in enumerate(self.p) if q == 1)
        return Subcube(self.n, support, ones)

    @staticmethod
    def uniform(n: int) -> "BitProductDistribution":
        return BitProductDistribution(tuple(Fraction(1, 2) for _ in range(n)))


def cube_key(cube: Subcube) -> tuple[int, int, int]:
    """Canonical subcube order: support size, then support mask, then values."""
    return (cube.size, cube.support, cube.values)


def project_weights(cubes: dict[Masks, Weight], region: Masks) -> dict[Masks, Weight]:
    """The weighted subcubes that meet ``region``, with its fixed bits dropped.

    Subcubes that project alike add up, in order of first appearance.
    """
    rs, rv = region
    out: dict[Masks, Weight] = {}
    for (s, v), w in cubes.items():
        if not (v ^ rv) & s & rs:
            key = (s & ~rs, v & ~rs)
            out[key] = out.get(key, 0) + w
    return out


def full_rectangle(f: TwoPartyFunction) -> Rectangle:
    return Rectangle((1 << f.nx) - 1, (1 << f.ny) - 1)


def full_cube(n: int) -> Subcube:
    return Subcube(n, 0, 0)


def enumerate_rectangles(nx: int, ny: int) -> Iterator[Rectangle]:
    """All nonempty rectangles, rows mask ascending then cols mask ascending.

    The count (2^nx - 1)(2^ny - 1) must not exceed the variable cap; empty
    rectangles are excluded since LP weight on them is wasted mass.
    """
    count = ((1 << nx) - 1) * ((1 << ny) - 1)
    if count > RECTANGLE_VARIABLE_CAP:
        raise CapExceededError(
            f"{count} rectangles exceed the cap of {RECTANGLE_VARIABLE_CAP}"
        )
    for rows in range(1, 1 << nx):
        for cols in range(1, 1 << ny):
            yield Rectangle(rows, cols)


def enumerate_subcubes(n: int) -> Iterator[Subcube]:
    """All 3^n subcubes, in canonical order.

    Order: support size ascending, then support mask ascending, then value
    mask ascending.
    """
    if n > MAX_QUERY_BITS:
        raise CapExceededError(f"n={n} exceeds the subcube cap of {MAX_QUERY_BITS}")
    full = (1 << n) - 1
    for support in sorted(range(1 << n), key=int.bit_count):  # stable: masks ascend within a size
        for values in Subcube(n, full ^ support, 0).members():
            yield Subcube(n, support, values)


def popular_label(mass0: int, mass1: int) -> int:
    """Label with the larger mass; ties resolve to 0."""
    return 1 if mass1 > mass0 else 0
