"""The two label-mass functions as they were before ``label_masses``.

``measure`` and ``bit_measure`` computed one label's mass of a region per
call, summing ``Fraction`` products cell by cell.  They are kept here
verbatim as the reference that ``tests/test_model.py`` compares the
one-pass integer kernels ``ProductDistribution2P.label_masses`` and
``BitProductDistribution.label_masses`` against, and that
``tests/reference_oracle.py`` still uses.
"""

from __future__ import annotations

from fractions import Fraction

from lpbounds.errors import DimensionMismatchError
from lpbounds.model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Rectangle,
    Subcube,
    TwoPartyFunction,
)


def measure(
    mu: ProductDistribution2P, f: TwoPartyFunction, z: int, rect: Rectangle
) -> Fraction:
    """mu_z(R) = mu(R intersect f^{-1}(z)), by exact summation."""
    if mu.nx != f.nx or mu.ny != f.ny:
        raise DimensionMismatchError(
            f"measure is {mu.nx}x{mu.ny} but function is {f.nx}x{f.ny}"
        )
    total = Fraction(0)
    for x in range(f.nx):
        if not (rect.rows >> x) & 1:
            continue
        rw = mu.row_weights[x]
        if rw == 0:
            continue
        row = f.table[x]
        for y in range(f.ny):
            if (rect.cols >> y) & 1 and row[y] == z:
                total += rw * mu.col_weights[y]
    return total


def bit_measure(
    mu: BitProductDistribution, g: QueryFunction, z: int, cube: Subcube
) -> Fraction:
    """mu_z(A) = mu(A intersect g^{-1}(z)), by enumeration of the subcube."""
    if mu.n != g.n or cube.n != g.n:
        raise DimensionMismatchError(
            f"bit counts disagree: measure {mu.n}, function {g.n}, subcube {cube.n}"
        )
    total = Fraction(0)
    for x in cube.members():
        if g.table[x] == z:
            total += mu.point(x)
    return total
