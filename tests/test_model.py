from fractions import Fraction

import pytest
from conftest import assert_refuses
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_model import (
    bit_measure,
    dtree_error as reference_dtree_error,
    fixed_cube,
    mass,
    measure,
    project_cube,
    project_loop,
    protocol_error as reference_protocol_error,
    restrict,
    split_loop,
)
from test_serialize import DECISION_TREES, PROTOCOL_TREES

from lpbounds import families
from lpbounds.errors import CapExceededError, DimensionMismatchError, ParseError
from lpbounds.model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Rectangle,
    Subcube,
    TwoPartyFunction,
    enumerate_rectangles,
    enumerate_subcubes,
    full_cube,
    full_rectangle,
    project_weights,
)
from lpbounds.trees import DNode, Leaf, PNode, check_fits, dtree_error, protocol_error

UNIFORM = ProductDistribution2P.uniform(4, 4)


def test_measure_const_zero_full_domain():
    f = families.const2p(2, 0)
    assert UNIFORM.label_masses(f, full_rectangle(f))[0] == 1


def test_measure_empty_rectangle():
    f = families.eq(2)
    assert UNIFORM.label_masses(f, Rectangle(0, 0))[1] == 0
    assert UNIFORM.label_masses(f, Rectangle(5, 0))[0] == 0


def test_measure_eq2_diagonal():
    f = families.eq(2)
    # independent: direct summation over the 16 cells
    expected = sum(
        (
            Fraction(1, 16)
            for x in range(4)
            for y in range(4)
            if (1 if x == y else 0) == 1
        ),
        Fraction(0),
    )
    assert expected == Fraction(1, 4)
    assert UNIFORM.label_masses(f, full_rectangle(f))[1] == Fraction(1, 4)


def test_measure_dimension_mismatch():
    f = families.eq(1)
    with pytest.raises(DimensionMismatchError):
        UNIFORM.label_masses(f, full_rectangle(f))


def test_bit_measure_const_one():
    g = families.const_q(3, 1)
    mu = BitProductDistribution.uniform(3)
    assert mu.label_masses(g, full_cube(3))[1] == 1


def test_bit_measure_zero_marginal():
    g = families.and_q(2)
    mu = BitProductDistribution((Fraction(0), Fraction(1, 2)))
    cube = Subcube.from_pattern("1*")  # fixes bit 0 to 1, probability 0
    assert mu.label_masses(g, cube)[1] == 0
    assert mu.label_masses(g, cube)[0] == 0


def test_bit_measure_and2_half_cube():
    g = families.and_q(2)
    mu = BitProductDistribution.uniform(2)
    cube = Subcube.from_pattern("1*")
    # members are x=01b (1) and x=11b (3); only 3 has AND = 1
    members = sorted(cube.members())
    assert members == [1, 3]
    assert mu.label_masses(g, cube)[1] == Fraction(1, 4)


def test_enumerate_rectangles_counts():
    assert len(list(enumerate_rectangles(2, 2))) == 9
    assert len(list(enumerate_rectangles(4, 4))) == 225
    assert len(list(enumerate_rectangles(1, 1))) == 1


def test_enumerate_rectangles_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_rectangles(16, 16))


def test_enumerate_rectangles_unique_and_ordered():
    rects = list(enumerate_rectangles(3, 2))
    assert len(set(rects)) == len(rects)
    keys = [(r.rows, r.cols) for r in rects]
    assert keys == sorted(keys)
    assert all(not r.is_empty() for r in rects)


def test_enumerate_subcubes_counts():
    assert len(list(enumerate_subcubes(2))) == 9
    assert sum(cube.size == 0 for cube in enumerate_subcubes(1)) == 1
    # 1 + C(3,1) * 2
    assert sum(cube.size <= 1 for cube in enumerate_subcubes(3)) == 7


def test_enumerate_subcubes_unique_and_deterministic():
    a = list(enumerate_subcubes(3))
    b = list(enumerate_subcubes(3))
    assert a == b
    assert len(set(a)) == len(a) == 27


def test_enumerate_subcubes_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_subcubes(13))


def test_subcube_membership_and_pattern():
    cube = Subcube.from_pattern("0*1")
    assert cube.pattern() == "0*1"
    assert cube.size == 2
    assert sorted(cube.members()) == [0b100, 0b110]
    assert cube.contains(0b100) and not cube.contains(0b101)


def test_subcube_intersection():
    a = Subcube.from_pattern("1**")
    b = Subcube.from_pattern("*0*")
    c = a.intersect(b)
    assert c is not None and c.pattern() == "10*"
    conflicting = Subcube.from_pattern("0**")
    assert a.intersect(conflicting) is None


@st.composite
def product_measures(draw):
    nx = draw(st.sampled_from([1, 2, 4]))
    ny = draw(st.sampled_from([1, 2, 4]))
    rows = tuple(
        Fraction(draw(st.integers(0, 8)), 8) for _ in range(nx)
    )
    cols = tuple(Fraction(draw(st.integers(0, 8)), 8) for _ in range(ny))
    return ProductDistribution2P(rows, cols)


@settings(max_examples=60, deadline=None)
@given(product_measures(), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.data())
def test_mass_splits_by_output(mu, rows, cols, data):
    nx, ny = mu.nx, mu.ny
    table = tuple(
        tuple(data.draw(st.integers(0, 1)) for _ in range(ny)) for _ in range(nx)
    )
    f = TwoPartyFunction(table)
    rect = Rectangle(rows & ((1 << nx) - 1), cols & ((1 << ny) - 1))
    assert sum(mu.label_masses(f, rect)) == mass(mu, rect)


def small_fractions(draw, count: int, top: int) -> tuple[Fraction, ...]:
    """count rationals k/d with 1 <= d <= 12 and 0 <= k <= top * d."""
    out = []
    for _ in range(count):
        d = draw(st.integers(1, 12))
        out.append(Fraction(draw(st.integers(0, top * d)), d))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_label_masses_match_the_reference_cc(a, b, data):
    """One-pass integer sums equal the old per-label Fraction sums, on both labels.

    Tables up to 8x8, weights k/d (zeros and totals other than 1 included),
    empty, partial and full rectangles.
    """
    nx, ny = 1 << a, 1 << b
    draw = data.draw
    f = TwoPartyFunction(
        tuple(tuple(draw(st.integers(0, 1)) for _ in range(ny)) for _ in range(nx))
    )
    mu = ProductDistribution2P(small_fractions(draw, nx, 2), small_fractions(draw, ny, 2))
    rect = Rectangle(draw(st.integers(0, (1 << nx) - 1)), draw(st.integers(0, (1 << ny) - 1)))
    assert mu.label_masses(f, rect) == (measure(mu, f, 0, rect), measure(mu, f, 1, rect))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_label_masses_on_an_intersection_match_the_restricted_measure(a, b, data):
    """mu on R & A reads what mu restricted to A reads on R.

    Protocol synthesis reads its measure on a node's active rectangle A
    instead of restricting the measure to A.  Tables up to 8x8, weights k/d
    (zeros and totals other than 1 included), empty, partial and full
    rectangles.
    """
    nx, ny = 1 << a, 1 << b
    draw = data.draw
    f = TwoPartyFunction(
        tuple(tuple(draw(st.integers(0, 1)) for _ in range(ny)) for _ in range(nx))
    )
    mu = ProductDistribution2P(small_fractions(draw, nx, 2), small_fractions(draw, ny, 2))

    def rectangle():
        return Rectangle(draw(st.integers(0, (1 << nx) - 1)), draw(st.integers(0, (1 << ny) - 1)))

    rect, active = rectangle(), rectangle()
    assert mu.label_masses(f, rect.intersect(active)) == restrict(mu, active).label_masses(f, rect)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_label_masses_match_the_reference_qc(n, data):
    """The same on {0,1}^n, n <= 5: marginals k/d including 0 and 1, random subcubes."""
    draw = data.draw
    g = QueryFunction(n, tuple(draw(st.integers(0, 1)) for _ in range(1 << n)))
    mu = BitProductDistribution(small_fractions(draw, n, 1))
    support = draw(st.integers(0, (1 << n) - 1))
    cube = Subcube(n, support, draw(st.integers(0, (1 << n) - 1)) & support)
    assert mu.label_masses(g, cube) == (bit_measure(mu, g, 0, cube), bit_measure(mu, g, 1, cube))


@settings(max_examples=60, deadline=None)
@given(product_measures(), st.data())
def test_block_ratio_identity_for_products(mu, data):
    """mu(R01 n R)/mu(R01) * mu(R10 n R)/mu(R10) == mu(R00 n R)/mu(R00) * mu(R11 n R)/mu(R11)."""
    nx, ny = mu.nx, mu.ny
    full_r = (1 << nx) - 1
    full_c = (1 << ny) - 1
    rows0 = data.draw(st.integers(0, full_r))
    cols0 = data.draw(st.integers(0, full_c))
    r = Rectangle(data.draw(st.integers(0, full_r)), data.draw(st.integers(0, full_c)))
    blocks = [
        Rectangle(rows0, cols0),
        Rectangle(rows0, full_c ^ cols0),
        Rectangle(full_r ^ rows0, cols0),
        Rectangle(full_r ^ rows0, full_c ^ cols0),
    ]
    masses = [mass(mu, b) for b in blocks]
    if any(m == 0 for m in masses):
        return
    ratios = [mass(mu, b.intersect(r)) / m for b, m in zip(blocks, masses)]
    assert ratios[1] * ratios[2] == ratios[0] * ratios[3]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_disjoint_support_product_identity(nums, sa, va, sb, vb):
    mu = BitProductDistribution(tuple(Fraction(k, 4) for k in nums))
    a = Subcube(3, sa, va & sa)
    b = Subcube(3, sb & ~sa, vb & sb & ~sa)  # force disjoint supports
    both = a.intersect(b)
    assert both is not None
    def cube_mass(cube):  # mu(cube): its 1-mass under the constant-1 function
        return bit_measure(mu, families.const_q(3, 1), 1, cube)

    assert cube_mass(a) * cube_mass(b) == cube_mass(both)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), PROTOCOL_TREES, st.data())
def test_protocol_error_matches_the_reference(a, b, tree, data):
    """The 1-mass of the mismatch table equals the old cell-by-cell sum.

    Random protocol trees on tables up to 8x8; weights k/d with zeros and
    totals other than 1.
    """
    nx, ny = 1 << a, 1 << b
    draw = data.draw
    f = TwoPartyFunction(
        tuple(tuple(draw(st.integers(0, 1)) for _ in range(ny)) for _ in range(nx))
    )
    mu = ProductDistribution2P(small_fractions(draw, nx, 2), small_fractions(draw, ny, 2))
    assert protocol_error(tree, f, mu) == reference_protocol_error(tree, f, mu)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), DECISION_TREES, st.data())
def test_dtree_error_matches_the_reference(n, tree, data):
    """The same for decision trees on {0,1}^n under marginals k/d, 0 and 1 included."""
    draw = data.draw
    g = QueryFunction(n, tuple(draw(st.integers(0, 1)) for _ in range(1 << n)))
    mu = BitProductDistribution(small_fractions(draw, n, 1))
    assert dtree_error(tree, g, mu) == reference_dtree_error(tree, g, mu)


@st.composite
def weighted_subcubes(draw, n: int) -> dict[Subcube, Fraction]:
    out = {}
    for _ in range(draw(st.integers(0, 12))):
        support = draw(st.integers(0, (1 << n) - 1))
        cube = Subcube(n, support, draw(st.integers(0, (1 << n) - 1)) & support)
        out[cube] = Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 6)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_project_weights_matches_the_old_loops(n, data):
    """Same projected cubes, summed weights and insertion order as the three old loops.

    Each family is projected on (support, values) masks the way
    ``extract_feasible`` (per label) and ``build_decision_tree`` (w without
    its support-disjoint cubes) do it.
    """
    u, w = data.draw(weighted_subcubes(n)), data.draw(weighted_subcubes(n))
    support = data.draw(st.integers(0, (1 << n) - 1))
    onto = Subcube(n, support, data.draw(st.integers(0, (1 << n) - 1)) & support)

    def project(family):  # keyed by masks, and back to subcubes
        masks = {(c.support, c.values): v for c, v in family.items()}
        return {Subcube(n, *c): v for c, v in project_weights(masks, (support, onto.values)).items()}

    for cube in [*u, *w]:
        proj = project_cube(cube, support, onto.values)
        assert project({cube: 1}) == ({} if proj is None else {proj: 1})

    def items(*families):
        return [list(family.items()) for family in families]

    sub_w = project({c: v for c, v in w.items() if c.support & support})
    assert items(project(u), sub_w) == items(*project_loop(u, w, support, onto.values))
    labels = [*(((0, c), v) for c, v in u.items()), *(((1, c), v) for c, v in w.items())]
    kept = dict(data.draw(st.permutations(labels)))
    labelled = [{c: v for (z, c), v in kept.items() if z == label} for label in (0, 1)]
    assert items(*map(project, labelled)) == items(
        *split_loop(kept, onto)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_fixed_cube_matches_the_reference(n, data):
    mu = BitProductDistribution(small_fractions(data.draw, n, 1))
    assert mu.fixed_cube() == fixed_cube(n, mu)


@settings(max_examples=100, deadline=None)
@given(product_measures())
def test_point_weights_sum_to_den_times_total(mu):
    den, weights = mu.point_weights
    assert len(weights) == mu.nx * mu.ny
    assert sum(weights) == den * mu.total


MARGINALS = st.lists(st.builds(Fraction, st.integers(0, 30), st.integers(1, 12)), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(MARGINALS, MARGINALS)
def test_total_is_the_product_of_the_marginal_sums(rows, cols):
    """``total``, read off the integer point weights, is the Fraction sum it replaced."""
    mu = ProductDistribution2P(tuple(rows), tuple(cols))
    assert mu.total == sum(rows, Fraction(0)) * sum(cols, Fraction(0))


def test_distribution_validation():
    with pytest.raises(DimensionMismatchError):
        ProductDistribution2P((Fraction(-1),), (Fraction(1),))
    with pytest.raises(DimensionMismatchError):
        BitProductDistribution((Fraction(3, 2),))


def test_two_party_function_validation():
    with pytest.raises(DimensionMismatchError):
        TwoPartyFunction(((0, 1), (1,)))
    with pytest.raises(DimensionMismatchError):
        TwoPartyFunction(((0, 2),))
    with pytest.raises(DimensionMismatchError):
        QueryFunction(2, (0, 1, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TwoPartyFunction(()), "empty truth table"),
        (lambda: TwoPartyFunction(((0,),) * 3), "|X| must be a power of two <= 16, got 3"),
        (lambda: TwoPartyFunction(((0, 0, 0),)), "|Y| must be a power of two <= 16, got 3"),
        (lambda: QueryFunction(0, (0,)), "bit count must be in [1, 12], got 0"),
        (lambda: QueryFunction(1, (0, 2)), "table entries must be bits, got 2"),
        (lambda: Rectangle(-1, 1), "rectangle masks must be non-negative"),
        (lambda: Subcube(2, 0b100, 0), "support mask out of range"),
        (lambda: Subcube(2, 0b01, 0b10), "values must be a submask of support"),
        (lambda: Subcube(2, 0, 0).intersect(Subcube(3, 0, 0)), "subcubes over different bit counts"),
        (lambda: Subcube.from_pattern("0x"), "bad pattern character 'x'"),
    ],
    ids=["empty", "X-size", "Y-size", "bit-count", "qc-bits", "rectangle", "support", "values",
         "intersect", "pattern"],
)
def test_model_refuses_malformed_input(call, message):
    assert_refuses(call, DimensionMismatchError, message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: families.make_function("and", 2, "xx"), ParseError, "side must be cc or qc, got 'xx'"),
        (lambda: families.make_function("maj", 2, "cc"), ParseError,
         "unknown cc family 'maj'; available: ['and', 'disj', 'eq', 'gt', 'or', 'xor']"),
        (lambda: families.make_function("eq", 5, "cc"), DimensionMismatchError,
         "cc family size must be in [0, 4], got 5"),
    ],
    ids=["side", "family", "size"],
)
def test_families_refuse_unknown_names_and_sizes(call, error, message):
    assert_refuses(call, error, message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PNode("C", 1, Leaf(0), Leaf(1)), DimensionMismatchError, "speaker must be A or B, got 'C'"),
        (lambda: check_fits(DNode(3, Leaf(0), Leaf(1)), families.maj_q(3)), ParseError,
         "decision tree queries bit 3 of a 3-bit function"),
        (lambda: check_fits(PNode("B", 0x10, Leaf(0), Leaf(1)), families.eq(2)), ParseError,
         "protocol tree splits B on 10, beyond its 4 inputs"),
    ],
    ids=["speaker", "bit", "split"],
)
def test_trees_refuse_malformed_nodes_and_misfit_artifacts(call, error, message):
    assert_refuses(call, error, message)
