import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpbounds
from lpbounds import families, serialize
from lpbounds.errors import ParseError
from lpbounds.model import BitProductDistribution, ProductDistribution2P
from lpbounds.trees import DNode, Leaf, PNode


def test_function_round_trip_cc():
    f = families.gt(2)
    text = serialize.write_function(f)
    assert text.splitlines()[0] == "cc 4 4"
    assert serialize.parse_function(text) == f


def test_function_round_trip_qc():
    g = families.maj_q(3)
    text = serialize.write_function(g)
    assert text.splitlines()[0] == "qc 3"
    assert serialize.parse_function(text) == g


def test_function_hash_stable():
    f = families.eq(2)
    assert serialize.function_hash(f) == serialize.function_hash(families.eq(2))
    assert serialize.function_hash(f) != serialize.function_hash(families.gt(2))


def test_distribution_round_trip():
    mu = ProductDistribution2P((F(1), F(2, 3)), (F(0), F(5)))
    assert serialize.parse_distribution(serialize.write_distribution(mu)) == mu
    bits = BitProductDistribution((F(1, 2), F(1, 3)))
    assert serialize.parse_distribution(serialize.write_distribution(bits)) == bits


@pytest.mark.parametrize("mu", [ProductDistribution2P((F(1, 4), F(3, 4)), (F(1, 3), F(0), F(2, 3))),
                                BitProductDistribution((F(1, 2), F(1, 5), F(1)))],
                         ids=["rows-cols", "p"])
def test_blank_lines_in_a_distribution_file_are_skipped(mu):
    """Blank and whitespace-only lines before, between and after the fields change nothing."""
    text = serialize.write_distribution(mu)
    spaced = "\n \n" + "\n\n\t\n".join(text.splitlines()) + "\n\n  \n"
    got = serialize.parse_distribution(spaced)
    assert got == serialize.parse_distribution(text) == mu
    assert got.point_weights == mu.point_weights


def test_protocol_tree_round_trip():
    tree = PNode("A", 0b0101, PNode("B", 0b0011, Leaf(1), Leaf(0)), Leaf(0))
    text = serialize.write_protocol_tree(tree)
    assert text.splitlines()[0] == "ptree v1"
    assert serialize.parse_protocol_tree(text) == tree


def test_decision_tree_round_trip():
    tree = DNode(2, Leaf(0), DNode(0, Leaf(1), Leaf(0)))
    text = serialize.write_decision_tree(tree)
    assert text.splitlines()[0] == "dtree v1"
    assert serialize.parse_decision_tree(text) == tree


LEAVES = st.builds(Leaf, st.integers(0, 1))
PROTOCOL_TREES = st.recursive(
    LEAVES,
    lambda sub: st.builds(PNode, st.sampled_from("AB"), st.integers(0, (1 << 16) - 1), sub, sub),
)
DECISION_TREES = st.recursive(
    LEAVES, lambda sub: st.builds(DNode, st.integers(0, 11), sub, sub)
)


@settings(max_examples=200, deadline=None)
@given(PROTOCOL_TREES, DECISION_TREES)
def test_tree_write_parse_round_trip(ptree, dtree):
    assert serialize.parse_protocol_tree(serialize.write_protocol_tree(ptree)) == ptree
    assert serialize.parse_decision_tree(serialize.write_decision_tree(dtree)) == dtree


def test_parse_errors():
    with pytest.raises(ParseError):
        serialize.parse_function("cc 4\n0000\n")
    with pytest.raises(ParseError):
        serialize.parse_function("qc 2\n012\n")
    with pytest.raises(ParseError):
        serialize.parse_distribution("rows: 1/2\n")
    with pytest.raises(ParseError):
        serialize.parse_protocol_tree("L 0\n")
    with pytest.raises(ParseError):
        serialize.parse_decision_tree("dtree v1\nQ 0\nL 1\n")  # truncated


@pytest.mark.parametrize(
    "text, key",
    [
        ("rows: 1/4 1/4\ncols: 1/2 1/2\nrows: 1 1\n", "rows"),
        ("rows: 1 1\ncols: 1/2 1/2\ncols: 1 1\n", "cols"),
        ("p: 1/2 1/2\np: 1 0\n", "p"),
    ],
    ids=["rows", "cols", "p"],
)
def test_parse_distribution_rejects_a_repeated_line(text, key):
    with pytest.raises(ParseError) as exc:
        serialize.parse_distribution(text)
    assert str(exc.value) == f"distribution file repeats the `{key}:` line"


def test_record_takes_a_kind_field():
    rec = serialize.record("bound", kind="prt", value="1")
    assert rec == {"v": serialize.RECORD_VERSION, "record": "bound", "kind": "prt", "value": "1"}


def test_records_round_trip_and_order():
    recs = [{"record": "x", "b": 1, "a": 2}, {"record": "summary", "pass": True}]
    text = serialize.dump_records(recs)
    lines = text.splitlines()
    assert lines[0] == '{"a": 2, "b": 1, "record": "x"}'
    assert serialize.load_records(text) == recs


@pytest.mark.parametrize("text, line", [("cc 4 4\n0000\n", 1), ('{"record": "run"}\n\n{"record": \n', 3)],
                         ids=["a-table", "a-cut-record"])
def test_a_line_that_is_not_json_is_a_parse_error_naming_it(text, line):
    with pytest.raises(ParseError, match=f"^record line {line} is not JSON: "):
        serialize.load_records(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("cc x 4\n0000\n", "|X| must be an integer, got 'x'"),
        ("qc -1\n0\n", "bit count must be in [1, 12], got -1"),
        ("qc 13\n" + "0" * (1 << 13) + "\n", "bit count must be in [1, 12], got 13"),
    ],
    ids=["cc-x-4", "qc-minus-1", "qc-13"],
)
def test_parse_function_header_errors(text, message):
    with pytest.raises(ParseError) as exc:
        serialize.parse_function(text)
    assert str(exc.value) == message


def test_parse_function_checks_bit_count_before_sizing_the_table():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"got 4000000000$"):
            serialize.parse_function("qc 4000000000\n0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def deep_tree_text(header: str, node: str, depth: int) -> str:
    """A left path: ``depth`` internal nodes in pre-order, then depth + 1 leaves."""
    return "\n".join([header] + [node] * depth + ["L 0"] * (depth + 1)) + "\n"


@pytest.mark.parametrize(
    "parse, header, node",
    [
        (serialize.parse_protocol_tree, "ptree v1", "I A 1"),
        (serialize.parse_decision_tree, "dtree v1", "Q 0"),
    ],
    ids=["ptree", "dtree"],
)
def test_tree_depth_is_bounded(parse, header, node):
    limit = serialize.MAX_TREE_DEPTH
    parse(deep_tree_text(header, node, limit))
    with pytest.raises(ParseError, match="deeper than"):
        parse(deep_tree_text(header, node, limit + 1))
    with pytest.raises(ParseError, match="deeper than"):
        parse(deep_tree_text(header, node, 3000))


@pytest.mark.parametrize(
    "parse, text",
    [
        (serialize.parse_protocol_tree, "ptree v1\nL 7\n"),
        (serialize.parse_protocol_tree, "ptree v1\nL x\n"),
        (serialize.parse_protocol_tree, "ptree v1\nI A zz\nL 0\nL 1\n"),
        (serialize.parse_protocol_tree, "ptree v1\nI B -1\nL 0\nL 1\n"),
        (serialize.parse_decision_tree, "dtree v1\nL 7\n"),
        (serialize.parse_decision_tree, "dtree v1\nL x\n"),
        (serialize.parse_decision_tree, "dtree v1\nQ -1\nL 0\nL 1\n"),
        (serialize.parse_decision_tree, "dtree v1\nQ x\nL 0\nL 1\n"),
        (serialize.parse_decision_tree, "dtree v1\nQ " + "1" * 5000 + "\nL 0\nL 1\n"),
    ],
    ids=["ptree-L-7", "ptree-L-x", "ptree-I-A-zz", "ptree-I-B-minus-1",
         "dtree-L-7", "dtree-L-x", "dtree-Q-minus-1", "dtree-Q-x", "dtree-Q-5000-digits"],
)
def test_tree_parsers_reject_bad_fields(parse, text):
    with pytest.raises(ParseError, match="bad (protocol|decision) tree line"):
        parse(text)


def test_tree_layer_loads_no_synthesis_module():
    """The tree codec and the oracles sit below both synthesis modules."""
    probe = (
        "import sys, lpbounds.serialize, lpbounds.oracle\n"
        "print(sorted(m for m in sys.modules if m.endswith(('ccsynth', 'qcsynth'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lpbounds.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
