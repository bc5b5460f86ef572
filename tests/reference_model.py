"""Measure and subcube code as it was before it moved behind ``label_masses``.

``measure`` and ``bit_measure`` computed one label's mass of a region per
call, summing ``Fraction`` products cell by cell.  ``protocol_error`` and
``dtree_error`` summed the weights of the mismatched inputs the same way,
through ``ProductDistribution2P`` weights and ``BitProductDistribution.point``
(``point`` here).  ``mass`` is ``ProductDistribution2P.mass``,
``fixed_cube`` is ``qcbounds._fixed_cube`` over ``fixed_bits``,
``project_cube`` is ``qcbounds._project_cube``, and ``split_loop`` and
``project_loop`` are the loops ``extract_feasible`` and
``build_decision_tree`` wrote around it.
They are kept here verbatim, apart from names, as the reference that
``tests/test_model.py`` compares ``label_masses``, the error measures of
``lpbounds.trees``, ``BitProductDistribution.fixed_cube``,
``Subcube.project`` and ``project_weights`` against;
``tests/reference_oracle.py`` still uses ``measure`` and ``bit_measure``.
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
from lpbounds.trees import DecisionTree, ProtocolTree, dtree_evaluate, evaluate


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
            total += point(mu, x)
    return total


def point(mu: BitProductDistribution, x: int) -> Fraction:
    m = Fraction(1)
    for i, q in enumerate(mu.p):
        m *= q if (x >> i) & 1 else 1 - q
    return m


def mass(mu: ProductDistribution2P, rect: Rectangle) -> Fraction:
    rw = sum(
        (w for x, w in enumerate(mu.row_weights) if (rect.rows >> x) & 1),
        Fraction(0),
    )
    cw = sum(
        (w for y, w in enumerate(mu.col_weights) if (rect.cols >> y) & 1),
        Fraction(0),
    )
    return rw * cw


def protocol_error(
    tree: ProtocolTree, f: TwoPartyFunction, mu: ProductDistribution2P
) -> Fraction:
    """Incorrect mass, by exhaustive evaluation."""
    if mu.nx != f.nx or mu.ny != f.ny:
        raise DimensionMismatchError("measure shape does not match function")
    total = Fraction(0)
    for x in range(f.nx):
        rw = mu.row_weights[x]
        if rw == 0:
            continue
        for y in range(f.ny):
            if evaluate(tree, x, y) != f.value(x, y):
                total += rw * mu.col_weights[y]
    return total


def dtree_error(
    tree: DecisionTree, g: QueryFunction, mu: BitProductDistribution
) -> Fraction:
    """Exact error mass Pr_mu[g(x) != tree(x)], by full enumeration."""
    if mu.n != g.n:
        raise DimensionMismatchError("measure and function bit counts differ")
    total = Fraction(0)
    for x in range(1 << g.n):
        if dtree_evaluate(tree, x) != g.value(x):
            total += point(mu, x)
    return total


def fixed_bits(mu: BitProductDistribution) -> int:
    """Mask of coordinates whose marginal is 0 or 1."""
    mask = 0
    for i, q in enumerate(mu.p):
        if q == 0 or q == 1:
            mask |= 1 << i
    return mask


def fixed_cube(n: int, mu: BitProductDistribution) -> Subcube:
    """The points consistent with the bits ``mu`` fixes to 0 or 1."""
    ones = sum(1 << i for i, q in enumerate(mu.p) if q == 1)
    return Subcube(n, fixed_bits(mu), ones)


def project_cube(
    cube: Subcube, fixed_mask: int, fixed_vals: int
) -> Subcube | None:
    """Drop fixed coordinates from the support; None when values conflict."""
    overlap = cube.support & fixed_mask
    if (cube.values ^ fixed_vals) & overlap:
        return None
    keep = cube.support & ~fixed_mask
    return Subcube(cube.n, keep, cube.values & keep)


def split_loop(
    kept: dict[tuple[int, Subcube], Fraction], fixed: Subcube
) -> tuple[dict[Subcube, Fraction], dict[Subcube, Fraction]]:
    """The u and w families of ``extract_feasible``."""
    u: dict[Subcube, Fraction] = {}
    w: dict[Subcube, Fraction] = {}
    for (z, cube), wv in kept.items():
        proj = project_cube(cube, fixed.support, fixed.values)
        if proj is None:
            continue
        side = u if z == 0 else w
        side[proj] = side.get(proj, Fraction(0)) + wv
    return u, w


def project_loop(
    u: dict[Subcube, Fraction], w: dict[Subcube, Fraction], support: int, values: int
) -> tuple[dict[Subcube, Fraction], dict[Subcube, Fraction]]:
    """The ``sub_u`` and ``sub_w`` families of ``build_decision_tree``."""
    sub_u: dict[Subcube, Fraction] = {}
    for c, v in u.items():
        proj = project_cube(c, support, values)
        if proj is not None:
            sub_u[proj] = sub_u.get(proj, Fraction(0)) + v
    sub_w: dict[Subcube, Fraction] = {}
    for c, v in w.items():
        if c.support & support == 0:
            continue  # support-disjoint mass is eliminated
        proj = project_cube(c, support, values)
        if proj is not None:
            sub_w[proj] = sub_w.get(proj, Fraction(0)) + v
    return sub_u, sub_w
