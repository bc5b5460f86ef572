"""Built-in Boolean function families.

Two-party families are indexed by the string length m and live on
2^m x 2^m; inputs are the integers 0 .. 2^m - 1 read as bit strings
(bit i of the integer is coordinate i).

  eq(m):    f(x, y) = [x == y]
  gt(m):    f(x, y) = [x > y]
  disj(m):  f(x, y) = [x & y == 0]            (set disjointness)
  and2p(m): f(x, y) = AND_i (x_i and y_i)  =  [x == y == 2^m - 1]
  or2p(m):  f(x, y) = OR_i  (x_i or y_i)   =  [x | y != 0]
  xor2p(m): f(x, y) = XOR_i (x_i xor y_i)  =  parity(x ^ y)

Query families on n bits:

  and_q(n), or_q(n), xor_q(n): the n-way AND / OR / parity of the bits
  maj_q(n): strict majority ([popcount(x) > n/2]; an even-n tie gives 0)
"""

from __future__ import annotations

from .errors import DimensionMismatchError, ParseError
from .model import MAX_QUERY_BITS, MAX_TABLE_SIDE, QueryFunction, TwoPartyFunction


def _two_party(m: int, predicate) -> TwoPartyFunction:
    size = 1 << m
    return TwoPartyFunction(
        tuple(
            tuple(1 if predicate(x, y) else 0 for y in range(size))
            for x in range(size)
        )
    )


def eq(m: int) -> TwoPartyFunction:
    return _two_party(m, lambda x, y: x == y)


def gt(m: int) -> TwoPartyFunction:
    return _two_party(m, lambda x, y: x > y)


def disj(m: int) -> TwoPartyFunction:
    return _two_party(m, lambda x, y: x & y == 0)


def and2p(m: int) -> TwoPartyFunction:
    full = (1 << m) - 1
    return _two_party(m, lambda x, y: (x & y) == full)


def or2p(m: int) -> TwoPartyFunction:
    return _two_party(m, lambda x, y: (x | y) != 0)


def xor2p(m: int) -> TwoPartyFunction:
    return _two_party(m, lambda x, y: (x ^ y).bit_count() % 2 == 1)


def const2p(m: int, bit: int) -> TwoPartyFunction:
    return _two_party(m, lambda x, y: bit == 1)


def _query(n: int, predicate) -> QueryFunction:
    return QueryFunction(
        n, tuple(1 if predicate(x) else 0 for x in range(1 << n))
    )


def and_q(n: int) -> QueryFunction:
    full = (1 << n) - 1
    return _query(n, lambda x: x == full)


def or_q(n: int) -> QueryFunction:
    return _query(n, lambda x: x != 0)


def xor_q(n: int) -> QueryFunction:
    return _query(n, lambda x: x.bit_count() % 2 == 1)


def maj_q(n: int) -> QueryFunction:
    return _query(n, lambda x: 2 * x.bit_count() > n)


def const_q(n: int, bit: int) -> QueryFunction:
    return _query(n, lambda x: bit == 1)


TWO_PARTY_FAMILIES = {
    "eq": eq,
    "gt": gt,
    "disj": disj,
    "and": and2p,
    "or": or2p,
    "xor": xor2p,
}

QUERY_FAMILIES = {
    "and": and_q,
    "or": or_q,
    "xor": xor_q,
    "maj": maj_q,
}


def make_function(family: str, m: int, side: str):
    """Instantiate a named family; ``side`` is ``cc`` or ``qc``."""
    if side == "cc":
        table, lo, hi = TWO_PARTY_FAMILIES, 0, MAX_TABLE_SIDE.bit_length() - 1
    elif side == "qc":
        table, lo, hi = QUERY_FAMILIES, 1, MAX_QUERY_BITS
    else:
        raise ParseError(f"side must be cc or qc, got {side!r}")
    if family not in table:
        raise ParseError(
            f"unknown {side} family {family!r}; available: {sorted(table)}"
        )
    # checked here, before the 2^m-sized table is built
    if not lo <= m <= hi:
        raise DimensionMismatchError(f"{side} family size must be in [{lo}, {hi}], got {m}")
    return table[family](m)
