"""The labelled partition LP: program identity and the boost's precondition.

Cached solutions are stored under ``lp._program_key``, and Bland's rule
follows variable and row order, so a builder change that renames or
reorders anything in these programs shows up here.
"""

from fractions import Fraction as F

import pytest

from lpbounds import families, lp
from lpbounds.ccbounds import (
    SrecInstance,
    _rect_family,
    build_prt_lp,
    build_rprt_lp,
    build_srec_lp,
    reduce_prt_error,
)
from lpbounds.errors import DimensionMismatchError, InfeasibleConstructionError
from lpbounds.model import ProductDistribution2P, Rectangle, Subcube, cube_key
from lpbounds.qcbounds import QprtSolution, _cube_family, boost_qprt, build_qprt_lp


@pytest.mark.parametrize(
    ("build", "family", "m", "side", "key"),
    [
        (build_prt_lp, "eq", 2, "cc", "c1f94b5f98038e9ca3a7991e1e5cc5803e83e5eaf1eee05dc96c5aaf08f53b72"),
        (build_rprt_lp, "eq", 2, "cc", "0ceb8fab4752db64ab246253e7038ec487a3901c84c91049451bbec1c26ddaed"),
        (build_prt_lp, "and", 2, "cc", "8b4a27b9a3a5a31ee67635c3ba729d132e461bd9fea2e7ca776488854021d073"),
        (build_rprt_lp, "and", 2, "cc", "9cce476927fdc22e3feaa90926884a16e2e32755297c1fa39d8789b528a765f4"),
        (build_qprt_lp, "maj", 3, "qc", "f131eb231a2ac3fc7728f52e8ddb98300b8b6121a5913ab85134ec473495d8f5"),
        (build_qprt_lp, "and", 4, "qc", "086e4f7e0790ade59721d582f03c1d5bd60506c6ea1614b4bd645d35664cbdf4"),
        (lambda f, eps: build_srec_lp(SrecInstance(f, 0, eps, eps)), "eq", 2, "cc",
         "0b3f2b67e08cafe0745fa6a5345733e9a189eb3f62ddac720e4e885398b78b00"),
        (lambda f, eps: build_srec_lp(SrecInstance(f, 1, eps, eps)), "eq", 2, "cc",
         "a30fa209260ebc86d308bc2560ed38f167e60de98c6a9eee35f14959d5ec96ed"),
    ],
    ids=["prt-eq2", "rprt-eq2", "prt-and2", "rprt-and2", "qprt-maj3", "qprt-and4", "srec0-eq2", "srec1-eq2"],
)
def test_partition_program_keys_are_pinned(build, family, m, side, key):
    assert lp._program_key(build(families.make_function(family, m, side), F(1, 8))) == key


@pytest.mark.parametrize(("nx", "ny"), [(nx, ny) for nx in range(1, 5) for ny in range(1, 5)])
def test_rectangle_layout_is_the_contains_scan(nx, ny):
    family = _rect_family(nx, ny)
    cells = [(x, y) for x in range(nx) for y in range(ny)]
    assert family.containing == tuple(
        tuple(k for k, r in enumerate(family.members) if r.contains(x, y)) for x, y in cells
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_subcube_layout_is_the_contains_scan(n):
    family = _cube_family(n)
    assert family.containing == tuple(
        tuple(k for k, c in enumerate(family.members) if c.contains(x)) for x in range(1 << n)
    )


@pytest.mark.parametrize(("nx", "ny"), [(nx, ny) for nx in range(1, 5) for ny in range(1, 5)])
def test_rectangles_are_listed_in_the_boost_order(nx, ny):
    """The boost sorts by member position, which for rectangles is the (rows, cols) order."""
    members = _rect_family(nx, ny).members
    assert list(members) == sorted(members, key=lambda r: (r.rows, r.cols))


@pytest.mark.parametrize("n", range(1, 6))
def test_subcubes_are_listed_in_the_boost_order(n):
    members = _cube_family(n).members
    assert list(members) == sorted(members, key=cube_key)


def test_builds_of_one_shape_share_one_layout():
    eps = F(1, 8)
    _rect_family.cache_clear()
    _cube_family.cache_clear()
    layout = _rect_family(4, 4).containing
    for f in (families.eq(2), families.gt(2)):
        build_srec_lp(SrecInstance(f, 1, eps, eps))
        build_srec_lp(SrecInstance(f, 0, eps, eps, ProductDistribution2P.uniform(4, 4)))
        build_prt_lp(f, eps)
        build_rprt_lp(f, eps)
    assert _rect_family(4, 4).containing is layout
    assert _rect_family.cache_info().misses == 1
    # the total-mass rows depend on the shape and the relation only: built once each
    for build in (build_prt_lp, build_rprt_lp):
        mass = [build(f, eps).rows[16:] for f in (families.eq(2), families.gt(2))]
        assert all(a is b for a, b in zip(*mass)) and len(mass[0]) == 16
    build_qprt_lp(families.maj_q(3), eps)
    layout = _cube_family(3).containing
    build_qprt_lp(families.and_q(3), eps)
    assert _cube_family(3).containing is layout
    assert _cube_family.cache_info().misses == 1


def test_srec_builds_of_one_shape_share_their_cap_rows():
    """The cap rows depend on the shape only: every srec build of it reads the same rows."""
    eps, mu = F(1, 8), ProductDistribution2P.uniform(4, 4)
    programs = [build_srec_lp(SrecInstance(f, z, eps, delta, dist))
                for f in (families.eq(2), families.gt(2)) for z in (0, 1)
                for delta in (eps, F(0)) for dist in (None, mu)]
    caps = [program.rows[-16:] for program in programs]
    assert [row.label for row in caps[0]] == [f"cap_{x}_{y}" for x in range(4) for y in range(4)]
    assert all(a is b for other in caps[1:] for a, b in zip(caps[0], other))


def test_qprt_boost_requires_exact_total_mass():
    g = families.and_q(2)
    half = QprtSolution(2, {(0, Subcube(2, 0, 0)): F(1, 2)})
    with pytest.raises(InfeasibleConstructionError, match="input is not an exact-mass"):
        boost_qprt(half, g, 3)


@pytest.mark.parametrize(
    ("boost", "weights"),
    [
        (lambda w: boost_qprt(QprtSolution(2, w), families.and_q(2), 3), {(0, Subcube(3, 0, 0)): F(1)}),
        (lambda w: boost_qprt(QprtSolution(2, w), families.and_q(2), 3), {(0, Subcube(3, 0, 0)): F(1, 2)}),
        (lambda w: reduce_prt_error(w, families.and2p(1), 3), {(0, Rectangle(0xFF, 0xF)): F(1)}),
        # every cell of this one has an index inside the 2x2 shape
        (lambda w: reduce_prt_error(w, families.and2p(1), 3), {(0, Rectangle(0b1, 0b100)): F(1)}),
        (lambda w: reduce_prt_error(w, families.and2p(1), 3), {(1, Rectangle(0, 0b1)): F(1)}),
    ],
    ids=["cube-n3", "cube-n3-half-mass", "rect-8x4", "rect-col-2", "rect-empty"],
)
def test_boost_rejects_a_member_outside_the_shape(boost, weights):
    """The member check comes before any mass is summed: not an IndexError, not a mass error."""
    with pytest.raises(DimensionMismatchError, match="is outside the family.s shape"):
        boost(weights)
