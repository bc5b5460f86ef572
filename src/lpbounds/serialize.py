"""Text formats for functions, distributions, trees, and result records.

Truth tables:  ``cc <|X|> <|Y|>`` header then |X| rows of 0/1 characters,
or ``qc <n>`` then a single 2^n character line (index = integer value of
the bit string, coordinate 0 least significant).

Distributions: ``rows:`` / ``cols:`` lines of rationals for the two-party
product measure, or a single ``p:`` line of per-bit marginals.  Rationals
are always written ``num/den`` or as a bare integer.

Trees are one node per line in pre-order after a version header:
``ptree v1`` with ``L <bit>`` / ``I <A|B> <hex split mask>``, and
``dtree v1`` with ``L <bit>`` / ``Q <bit index>``.

Result records are JSON objects, one per line, with sorted keys and a
``v`` version field, so reports diff cleanly and byte-compare across runs.
"""

from __future__ import annotations

import hashlib
import json
import string
from fractions import Fraction
from functools import partial
from typing import Callable

from .errors import ParseError
from .model import (
    MAX_QUERY_BITS,
    MAX_TABLE_SIDE,
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    TwoPartyFunction,
)
from .rational import format_rational, log2_bracket, parse_rational
from .trees import DecisionTree, DNode, Leaf, PNode, ProtocolTree, Tree, leaf_count, tree_depth

RECORD_VERSION = 1

# the characters of a tree's split masks (hex) and bit indices (decimal)
_HEX_DIGITS = frozenset(string.hexdigits)
_DIGITS = frozenset(string.digits)

# Deeper than any tree whose splits all shrink the input set on the
# supported sizes (30 levels for 16 x 16 tables, 12 for 12 query bits), and
# shallow enough for the recursive tree walkers under the interpreter's
# default recursion limit.
MAX_TREE_DEPTH = 512

NodeMaker = Callable[[Tree, Tree], Tree]  # an internal node awaiting its two subtrees


# ---------------------------------------------------------------------------
# truth tables


def write_function(fn: TwoPartyFunction | QueryFunction) -> str:
    if isinstance(fn, TwoPartyFunction):
        rows = "\n".join("".join(str(v) for v in row) for row in fn.table)
        return f"cc {fn.nx} {fn.ny}\n{rows}\n"
    bits = "".join(str(v) for v in fn.table)
    return f"qc {fn.n}\n{bits}\n"


def _header_int(token: str, what: str, lo: int, hi: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}") from None
    if not lo <= value <= hi:
        raise ParseError(f"{what} must be in [{lo}, {hi}], got {value}")
    return value


def parse_function(text: str) -> TwoPartyFunction | QueryFunction:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty function file")
    head = lines[0].split()
    if head[0] == "cc":
        if len(head) != 3:
            raise ParseError("cc header must be `cc <|X|> <|Y|>`")
        nx = _header_int(head[1], "|X|", 1, MAX_TABLE_SIDE)
        ny = _header_int(head[2], "|Y|", 1, MAX_TABLE_SIDE)
        if len(lines) != 1 + nx:
            raise ParseError(f"expected {nx} table rows, found {len(lines) - 1}")
        table = []
        for ln in lines[1:]:
            if len(ln) != ny or any(ch not in "01" for ch in ln):
                raise ParseError(f"bad table row {ln!r}")
            table.append(tuple(int(ch) for ch in ln))
        return TwoPartyFunction(tuple(table))
    if head[0] == "qc":
        if len(head) != 2:
            raise ParseError("qc header must be `qc <n>`")
        n = _header_int(head[1], "bit count", 1, MAX_QUERY_BITS)
        if len(lines) != 2:
            raise ParseError("qc format is a header line plus one table line")
        ln = lines[1]
        if len(ln) != 1 << n or any(ch not in "01" for ch in ln):
            raise ParseError(f"qc table must be 2^{n} bits")
        return QueryFunction(n, tuple(int(ch) for ch in ln))
    raise ParseError(f"unknown function header {head[0]!r}; expected cc or qc")


def function_hash(fn: TwoPartyFunction | QueryFunction) -> str:
    return hashlib.sha256(write_function(fn).encode()).hexdigest()


# ---------------------------------------------------------------------------
# distributions


def write_distribution(mu: ProductDistribution2P | BitProductDistribution) -> str:
    if isinstance(mu, ProductDistribution2P):
        rows = " ".join(format_rational(w) for w in mu.row_weights)
        cols = " ".join(format_rational(w) for w in mu.col_weights)
        return f"rows: {rows}\ncols: {cols}\n"
    return "p: " + " ".join(format_rational(w) for w in mu.p) + "\n"


def parse_distribution(text: str) -> ProductDistribution2P | BitProductDistribution:
    fields: dict[str, tuple[Fraction, ...]] = {}
    for ln in text.strip().splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ":" not in ln:
            raise ParseError(f"bad distribution line {ln!r}")
        key, _, rest = ln.partition(":")
        key = key.strip()
        if key in fields:
            raise ParseError(f"distribution file repeats the `{key}:` line")
        fields[key] = tuple(parse_rational(tok) for tok in rest.split())
    if "p" in fields:
        if set(fields) != {"p"}:
            raise ParseError("bit-wise distribution files carry a single `p:` line")
        return BitProductDistribution(fields["p"])
    if set(fields) == {"rows", "cols"}:
        return ProductDistribution2P(fields["rows"], fields["cols"])
    raise ParseError("distribution file needs `rows:`+`cols:` lines or a `p:` line")


def distribution_hash(mu: ProductDistribution2P | BitProductDistribution) -> str:
    return hashlib.sha256(write_distribution(mu).encode()).hexdigest()


# ---------------------------------------------------------------------------
# trees


def write_protocol_tree(tree: ProtocolTree) -> str:
    return _write_tree("ptree v1", tree, lambda node: f"I {node.speaker} {node.split:x}")


def parse_protocol_tree(text: str) -> ProtocolTree:
    return _parse_tree(text, "ptree v1", "protocol tree", _protocol_node)


def write_decision_tree(tree: DecisionTree) -> str:
    return _write_tree("dtree v1", tree, lambda node: f"Q {node.bit}")


def parse_decision_tree(text: str) -> DecisionTree:
    return _parse_tree(text, "dtree v1", "decision tree", _decision_node)


def _protocol_node(parts: list[str]) -> NodeMaker | None:
    if (
        parts[0] == "I"
        and len(parts) == 3
        and parts[1] in ("A", "B")
        and set(parts[2]) <= _HEX_DIGITS
    ):
        return partial(PNode, parts[1], int(parts[2], 16))
    return None


def _decision_node(parts: list[str]) -> NodeMaker | None:
    if parts[0] == "Q" and len(parts) == 2 and set(parts[1]) <= _DIGITS:
        try:
            bit = int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"bad decision tree line: bit index of {len(parts[1])} digits"
            ) from None
        return partial(DNode, bit)
    return None


def _write_tree(header: str, tree: Tree, node_line: Callable[[Tree], str]) -> str:
    lines = [header]

    def emit(node: Tree) -> None:
        if isinstance(node, Leaf):
            lines.append(f"L {node.label}")
        else:
            lines.append(node_line(node))
            for child in node.children:
                emit(child)

    emit(tree)
    return "\n".join(lines) + "\n"


def _parse_tree(
    text: str, header: str, kind: str, node: Callable[[list[str]], NodeMaker | None]
) -> Tree:
    """The pre-order tree of ``text``; ``node`` maps the fields of a line to
    its node awaiting two subtrees, or to None for no node line of this kind."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ParseError(f"{kind} files start with `{header}`")
    pos = 1

    def read(depth: int) -> Tree:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"truncated {kind}")
        if depth > MAX_TREE_DEPTH:
            raise ParseError(f"{kind} deeper than {MAX_TREE_DEPTH} levels")
        parts = lines[pos].split()
        pos += 1
        if parts in (["L", "0"], ["L", "1"]):
            return Leaf(int(parts[1]))
        make = node(parts)
        if make is None:
            raise ParseError(f"bad {kind} line {lines[pos - 1]!r}")
        return make(read(depth + 1), read(depth + 1))

    tree = read(0)
    if pos != len(lines):
        raise ParseError(f"trailing lines after the {kind}")
    return tree


# ---------------------------------------------------------------------------
# records


def record(kind: str, /, **fields) -> dict:
    """A report record: the format version, its kind, then ``fields``."""
    return {"v": RECORD_VERSION, "record": kind, **fields}


def bound_record(kind: str, fn_hash: str, params: dict, sol) -> dict:
    """The record of a bound's optimal ``LPSolution``; only here is log2 of its value bracketed."""
    log2_lo = log2_hi = None
    if sol.value != 0:
        log2_lo, log2_hi = map(format_rational, log2_bracket(sol.value, precision_bits=20))
    return record(
        "bound",
        kind=kind,
        fn_hash=fn_hash,
        params=params,
        value=format_rational(sol.value),
        log2_lo=log2_lo,
        log2_hi=log2_hi,
        support_size=len(sol.primal),
        iterations=sol.iterations,
        phase1_iterations=sol.phase1_iterations,
    )


def protocol_summary_record(tree: ProtocolTree, adv: Fraction) -> dict:
    return record(
        "ptree-summary",
        leaves=leaf_count(tree),
        depth=tree_depth(tree),
        advantage=format_rational(adv),
    )


def decision_summary_record(tree: DecisionTree, error: Fraction, params: dict) -> dict:
    return record(
        "dtree-summary", depth=tree_depth(tree), error=format_rational(error), params=params
    )


def feasible_system_record(system) -> dict:
    return record(
        "feasible-system",
        n=system.n,
        # dump_records sorts these patterns, as every key
        u={cube.pattern(): format_rational(w) for cube, w in system.u.items()},
        w={cube.pattern(): format_rational(w) for cube, w in system.w.items()},
        alpha0=format_rational(system.alpha0),
        beta0=format_rational(system.beta0),
        alpha1=format_rational(system.alpha1),
        beta1=format_rational(system.beta1),
        a=system.a,
        b=system.b,
    )


def dump_records(records: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def load_records(text: str) -> list[dict]:
    out = []
    for number, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if ln:
            try:
                out.append(json.loads(ln))
            except RecursionError:
                raise ParseError(f"record line {number} is nested too deeply") from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"record line {number} is not JSON: {exc.msg}") from None
    return out
