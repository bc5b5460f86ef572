"""The labelled partition LP: program identity and the boost's pre- and postconditions.

Cached solutions are stored under ``lp._program_key``, and Bland's rule
follows variable and row order, so a builder change that renames or
reorders anything in these programs shows up here.
"""

import gc
import weakref
from fractions import Fraction as F
from functools import partial

import pytest
from conftest import assert_refuses, qprt_cached

from lpbounds import families, lp, partition
from lpbounds.ccbounds import (
    SrecInstance,
    _cell_rows,
    _rect_family,
    _srec_columns,
    build_prt_lp,
    build_rprt_lp,
    build_srec_lp,
    reduce_prt_error,
)
from lpbounds.errors import DimensionMismatchError, InfeasibleConstructionError
from lpbounds.model import ProductDistribution2P, Rectangle, Subcube, cube_key
from lpbounds.partition import LabelledFamily
from lpbounds.qcbounds import QprtSolution, _cube_family, boost_qprt, build_qprt_lp, qprt_solution


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


CC_FUNCTIONS = (families.eq(2), families.gt(2), families.disj(2), families.xor2p(2))
QC_FUNCTIONS = (families.maj_q(3), families.and_q(3), families.xor_q(3))


def _shared_rows(programs, prefixes):
    """Per label with one of ``prefixes`` and per row content under it, the ids of the rows held."""
    objects: dict[tuple, set[int]] = {}
    for program in programs:
        for row in program.rows:
            if row.label.startswith(prefixes):
                content = (row.label, row.s, row.cols, row.coeffs, row.rel, row.rhs)
                objects.setdefault(content, set()).add(id(row))
    return objects


def _srec_builds(eps, delta, mu=None):
    return [build_srec_lp(SrecInstance(f, z, eps, delta, mu)) for f in CC_FUNCTIONS for z in (0, 1)]


def _partition_builds(eps):
    return ([build(f, eps) for f in CC_FUNCTIONS for build in (build_prt_lp, build_rprt_lp)],
            [build_qprt_lp(g, eps) for g in QC_FUNCTIONS])


def test_builds_at_one_level_share_their_covering_and_packing_rows():
    """A per-point covering or packing row depends on the shape, the point and the level only.

    Every build of one shape at equal eps (and delta) holds the same ``Row``
    object under each such label, whatever the function and z; srec-dist
    shares the packing rows and builds its averaged covering row anew.
    """
    eps, mu = F(1, 8), ProductDistribution2P.uniform(4, 4)
    worst, dist = _srec_builds(eps, eps), _srec_builds(eps, eps, mu)
    cells = [f"{x}_{y}" for x in range(4) for y in range(4)]
    srec = _shared_rows(worst + dist, ("cov_", "pack_"))
    # one level each: one row content, and one object, per label
    assert sorted(label for label, *_ in srec) == sorted(f"{kind}_{tag}" for kind in ("cov", "pack")
                                                         for tag in cells)
    assert all(len(ids) == 1 for ids in srec.values())
    averaged = [row for program in dist for row in program.rows if row.label == "cov"]
    assert len(averaged) == len({id(row) for row in averaged}) == len(dist)
    cc, qc = _partition_builds(eps)
    for programs, points in ((cc, 16), (qc, 8)):
        covering = _shared_rows(programs, ("cov_",))
        # a point is covered at label 0 by some functions and at label 1 by others
        assert len({label for label, *_ in covering}) == points < len(covering)
        assert all(len(ids) == 1 for ids in covering.values())


def _level(row):
    return F(row.rhs, row.s)


def test_another_level_makes_rows_of_its_own():
    """Builds at another eps or delta hold new rows at that level; the rows of the other level stay."""
    eps, other = F(1, 8), F(1, 4)
    base = _srec_builds(eps, eps)[0]
    by_label = {row.label: row for row in base.rows}
    moved = {row.label: row for row in _srec_builds(other, eps)[0].rows}
    packed = {row.label: row for row in _srec_builds(eps, other)[0].rows}
    for label, row in by_label.items():
        if label.startswith("cov_"):
            assert moved[label] is not row and _level(moved[label]) == 1 - other != _level(row)
            assert packed[label] is row
        elif label.startswith("pack_"):
            assert moved[label] is row
            assert packed[label] is not row and _level(packed[label]) == other != _level(row)
    for at_eps, at_other in zip(_partition_builds(eps), _partition_builds(other)):
        for a, b in zip(at_eps, at_other):
            points = len(a.rows) // 2
            assert not {id(row) for row in a.rows[:points]} & {id(row) for row in b.rows[:points]}
            assert all(x is y for x, y in zip(a.rows[points:], b.rows[points:]))  # total mass


def test_shared_rows_equal_the_rows_of_a_first_build():
    """What a build hands out after others of its shape equals what a first build makes, key and all."""
    eps, mu = F(1, 8), ProductDistribution2P.uniform(4, 4)
    instances = [SrecInstance(f, z, e, d, m) for f in CC_FUNCTIONS for z in (0, 1)
                 for e, d, m in ((eps, eps, None), (eps, F(0), mu), (F(0), eps, None))]
    builds = ([partial(build_srec_lp, inst) for inst in instances]
              + [partial(build, f, eps) for f in CC_FUNCTIONS for build in (build_prt_lp, build_rprt_lp)]
              + [partial(build_qprt_lp, g, eps) for g in QC_FUNCTIONS])
    for build in builds:
        build()
    warm = [build() for build in builds]
    first = []
    for build in builds:
        for cache in (_cell_rows, _srec_columns, _rect_family, _cube_family):
            cache.cache_clear()
        first.append(build())
    assert warm == first
    assert [lp._program_key(p) for p in warm] == [lp._program_key(p) for p in first]


def test_nothing_holds_a_program_or_a_solution_after_its_solve(tmp_path):
    """The shape caches hold rows and names only: a solved program and its solution are freed.

    Checked on a cold solve, on a cache hit and with no cache.
    """
    eps = F(1, 8)
    builds = (lambda: build_prt_lp(families.eq(2), eps),
              lambda: build_srec_lp(SrecInstance(families.gt(2), 1, eps, eps)),
              lambda: build_srec_lp(SrecInstance(families.gt(2), 0, eps, eps,
                                                 ProductDistribution2P.uniform(4, 4))),
              lambda: build_qprt_lp(families.maj_q(3), eps))
    for cache in (str(tmp_path), str(tmp_path), None):
        lp.set_cache_dir(cache)
        try:
            for build in builds:
                program = build()
                sol = lp.solve(program)
                refs = [weakref.ref(program), weakref.ref(sol)]
                del program, sol
                gc.collect()
                assert [ref() for ref in refs] == [None, None]
        finally:
            lp.set_cache_dir(None)


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


@pytest.mark.parametrize(
    ("change", "message"),
    [
        (lambda v0, v1: (v0 + 1, v1), "boosted objective exceeds the product bound"),
        (lambda v0, v1: (v0 - 1, v1), "boosted total mass at 0 is not 1"),
        (lambda v0, v1: (v0 - 1, v1 + 1), "boosted correct mass at 0 differs from the binomial tail"),
    ],
    ids=["objective", "total-mass", "correct-mass"],
)
def test_boost_refuses_a_product_that_breaks_a_postcondition(monkeypatch, change, message):
    """One perturbed closure value trips each postcondition check, by its own message.

    All weight on the whole cube of {0,1}^2 at label 0 has objective 1 and
    boosts to itself, so the bound is 1 and every point's total and correct
    masses are exact: one more unit of weight breaks the bound, one less
    the total mass, and one moved to label 1 the correct mass.
    """
    product = LabelledFamily._product

    def perturbed(self, pairs, t):
        (member, points, v0, v1), *rest = product(self, pairs, t)
        return [(member, points, *change(v0, v1)), *rest]

    weights = {(0, Subcube(2, 0, 0)): F(1)}
    assert boost_qprt(QprtSolution(2, weights), families.and_q(2), 3).solution.weights == weights
    monkeypatch.setattr(LabelledFamily, "_product", perturbed)
    assert_refuses(lambda: boost_qprt(QprtSolution(2, weights), families.and_q(2), 3),
                   InfeasibleConstructionError, message)


def test_boost_leaves_a_zero_weight_entry_out_of_its_product(monkeypatch):
    """A zero weight reaches no closure element: the product's input and the result are
    those of the same weights without it."""
    product, seen = LabelledFamily._product, []

    def spy(self, pairs, t):
        seen.append(dict(pairs))
        return product(self, pairs, t)

    monkeypatch.setattr(LabelledFamily, "_product", spy)
    g, weights = families.and_q(2), {(0, Subcube(2, 0, 0)): F(1)}
    boosted = [boost_qprt(QprtSolution(2, w), g, 3)
               for w in (weights, {**weights, (1, Subcube(2, 0b11, 0b11)): F(0)})]
    assert seen[0] == seen[1] == {Subcube(2, 0, 0): [1, 0]}
    assert boosted[0] == boosted[1]


def test_boost_reads_its_input_numerators_once_and_makes_only_its_results_fractions(monkeypatch):
    g = families.make_function("maj", 3, "qc")
    sol = qprt_solution(g, qprt_cached("maj3", F(1, 8)))
    family = _cube_family(3)
    family._costs  # the member costs: made once per family, before the count starts
    read, made, numerators = [], [], partition.numerators

    def counting_numerators(values):
        values = list(values)
        read.append(values)
        return numerators(values)

    def counting_fraction(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(partition, "numerators", counting_numerators)
    monkeypatch.setattr(partition, "Fraction", counting_fraction)
    boosted = family.boost(sol.weights, g.labels, 5)
    monkeypatch.undo()
    assert read == [list(sol.weights.values())]
    assert len(made) == len(boosted.weights) + 2  # the weights, achieved_error and objective
    assert boosted == family.boost(sol.weights, g.labels, 5)
    assert list(boosted.weights) == sorted(boosted.weights, key=lambda zk: (zk[0], family._position[zk[1]]))
