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
fixed coordinates, i.e. popcount(support).

Measures are exact rationals and are *not* required to be normalized;
``ProductDistribution2P`` totals may be any non-negative rational, while
``BitProductDistribution`` is normalized by construction (each coordinate
carries a marginal p_i in [0,1] whose complement is 1 - p_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterator

from .errors import CapExceededError, DimensionMismatchError

RECTANGLE_VARIABLE_CAP = 1 << 20
MAX_QUERY_BITS = 12
MAX_TABLE_SIDE = 16


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class TwoPartyFunction:
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

    def value(self, x: int, y: int) -> int:
        return self.table[x][y]


@dataclass(frozen=True)
class QueryFunction:
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

    def value(self, x: int) -> int:
        return self.table[x]


@dataclass(frozen=True)
class Rectangle:
    """Combinatorial rectangle rows x cols, as bitmasks; may be empty."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("rectangle masks must be non-negative")

    def contains(self, x: int, y: int) -> bool:
        return bool((self.rows >> x) & 1 and (self.cols >> y) & 1)

    def is_empty(self) -> bool:
        return self.rows == 0 or self.cols == 0

    def intersect(self, other: "Rectangle") -> "Rectangle":
        return Rectangle(self.rows & other.rows, self.cols & other.cols)


@dataclass(frozen=True)
class Subcube:
    """Subcube of {0,1}^n: all x with x & support == values.

    ``values`` must be a submask of ``support``; the support size is the
    number of fixed coordinates.
    """

    n: int
    support: int
    values: int

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if not 0 <= self.support <= full:
            raise DimensionMismatchError("support mask out of range")
        if self.values & ~self.support:
            raise DimensionMismatchError("values must be a submask of support")

    @property
    def size(self) -> int:
        return self.support.bit_count()

    def contains(self, x: int) -> bool:
        return (x & self.support) == self.values

    def members(self) -> Iterator[int]:
        free = [i for i in range(self.n) if not (self.support >> i) & 1]
        for m in range(1 << len(free)):
            x = self.values
            for j, i in enumerate(free):
                if (m >> j) & 1:
                    x |= 1 << i
            yield x

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

    def project(self, onto: "Subcube") -> "Subcube | None":
        """This subcube within ``onto``, with ``onto``'s fixed coordinates dropped.

        None when the two are disjoint (a shared coordinate fixed differently).
        Only the masks of ``onto`` are read; the result has this bit count.
        """
        if (self.values ^ onto.values) & self.support & onto.support:
            return None
        keep = self.support & ~onto.support
        return Subcube(self.n, keep, self.values & keep)

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


def _integer_weights(weights: tuple[Fraction, ...], mask: int) -> tuple[int, list[tuple[int, int]]]:
    """D = lcm of the denominators, and (i, w_i * D) for the nonzero w_i in ``mask``."""
    den = lcm(*(w.denominator for w in weights))
    picked = ((i, w) for i, w in enumerate(weights) if (mask >> i) & 1 and w)
    return den, [(i, w.numerator * (den // w.denominator)) for i, w in picked]


@dataclass(frozen=True)
class ProductDistribution2P:
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

    @property
    def total(self) -> Fraction:
        return sum(self.row_weights, Fraction(0)) * sum(self.col_weights, Fraction(0))

    def label_masses(self, f: TwoPartyFunction, rect: Rectangle) -> tuple[Fraction, Fraction]:
        """(mu_0(R), mu_1(R)), mu_z(R) = mu(R intersect f^{-1}(z)), in one pass.

        Cells are summed as integers over lcm(row denominators) *
        lcm(column denominators); only the two results are Fractions.
        """
        if self.nx != f.nx or self.ny != f.ny:
            raise DimensionMismatchError(
                f"measure is {self.nx}x{self.ny} but function is {f.nx}x{f.ny}"
            )
        dr, rows = _integer_weights(self.row_weights, rect.rows)
        dc, cols = _integer_weights(self.col_weights, rect.cols)
        sums = [0, 0]
        for x, r in rows:
            for y, c in cols:
                sums[f.table[x][y]] += r * c
        return Fraction(sums[0], dr * dc), Fraction(sums[1], dr * dc)

    def restrict(self, rect: Rectangle) -> "ProductDistribution2P":
        """Zero out all weight outside the rectangle; stays in product form."""
        return ProductDistribution2P(
            tuple(
                w if (rect.rows >> x) & 1 else Fraction(0)
                for x, w in enumerate(self.row_weights)
            ),
            tuple(
                w if (rect.cols >> y) & 1 else Fraction(0)
                for y, w in enumerate(self.col_weights)
            ),
        )

    @staticmethod
    def uniform(nx: int, ny: int) -> "ProductDistribution2P":
        """Normalized uniform measure: each cell carries 1/(nx*ny)."""
        return ProductDistribution2P(
            tuple(Fraction(1, nx) for _ in range(nx)),
            tuple(Fraction(1, ny) for _ in range(ny)),
        )


@dataclass(frozen=True)
class BitProductDistribution:
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

    def mass(self, cube: Subcube) -> Fraction:
        """mu(cube); free coordinates marginalize out exactly."""
        if cube.n != self.n:
            raise DimensionMismatchError("subcube bit count does not match measure")
        m = Fraction(1)
        for i, q in enumerate(self.p):
            if (cube.support >> i) & 1:
                m *= q if (cube.values >> i) & 1 else 1 - q
        return m

    def label_masses(self, g: QueryFunction, cube: Subcube) -> tuple[Fraction, Fraction]:
        """(mu_0(A), mu_1(A)), mu_z(A) = mu(A intersect g^{-1}(z)), in one pass.

        Over D = prod_i den(p_i) a point weighs the integer prod_i (num(p_i)
        if x_i = 1 else den(p_i) - num(p_i)); only the two results are Fractions.
        """
        if self.n != g.n or cube.n != g.n:
            raise DimensionMismatchError(
                f"bit counts disagree: measure {self.n}, function {g.n}, subcube {cube.n}"
            )
        factors = [(q.denominator - q.numerator, q.numerator) for q in self.p]
        sums = [0, 0]
        for x in cube.members():
            sums[g.table[x]] += prod(pair[(x >> i) & 1] for i, pair in enumerate(factors))
        den = prod(q.denominator for q in self.p)
        return Fraction(sums[0], den), Fraction(sums[1], den)

    def fixed_cube(self) -> Subcube:
        """The points consistent with the coordinates whose marginal is 0 or 1."""
        support = sum(1 << i for i, q in enumerate(self.p) if q == 0 or q == 1)
        ones = sum(1 << i for i, q in enumerate(self.p) if q == 1)
        return Subcube(self.n, support, ones)

    def condition(self, support: int, values: int) -> "BitProductDistribution":
        """Overwrite the marginals on ``support`` with point masses ``values``."""
        return BitProductDistribution(
            tuple(
                (Fraction(1) if (values >> i) & 1 else Fraction(0))
                if (support >> i) & 1
                else q
                for i, q in enumerate(self.p)
            )
        )

    @staticmethod
    def uniform(n: int) -> "BitProductDistribution":
        return BitProductDistribution(tuple(Fraction(1, 2) for _ in range(n)))


def cube_key(cube: Subcube) -> tuple[int, int, int]:
    """Canonical subcube order: support size, then support mask, then values."""
    return (cube.size, cube.support, cube.values)


def project_weights(weights: dict[Subcube, Fraction], onto: Subcube) -> dict[Subcube, Fraction]:
    """Weighted subcubes projected into ``onto``; cubes that project alike add up.

    Cubes disjoint from ``onto`` are dropped.
    """
    out: dict[Subcube, Fraction] = {}
    for cube, w in weights.items():
        proj = cube.project(onto)
        if proj is not None:
            out[proj] = out.get(proj, Fraction(0)) + w
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


def enumerate_subcubes(n: int, max_support: int | None = None) -> Iterator[Subcube]:
    """All subcubes with support size <= max_support, in canonical order.

    Order: support size ascending, then support mask ascending, then value
    mask ascending.  The total count is sum over k <= max_support of
    C(n,k) * 2^k.
    """
    if n > MAX_QUERY_BITS:
        raise CapExceededError(f"n={n} exceeds the subcube cap of {MAX_QUERY_BITS}")
    if max_support is None:
        max_support = n
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for support in range(1 << n):
        k = support.bit_count()
        if k <= max_support:
            by_size[k].append(support)
    for k in range(min(max_support, n) + 1):
        for support in by_size[k]:
            submask = 0
            while True:
                yield Subcube(n, support, submask)
                if submask == support:
                    break
                submask = (submask - support) & support


def popular_label(mass0: Fraction, mass1: Fraction) -> int:
    """Label with the larger mass; ties resolve to 0."""
    return 1 if mass1 > mass0 else 0
