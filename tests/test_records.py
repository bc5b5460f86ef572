"""Record semantics, over every record class in ``src/lpbounds``.

A record compares and hashes as the tuple of its declared fields, in
order, so sets and dicts of records iterate as they did under
``dataclasses``; what ``__post_init__`` or a ``cached_property`` stores
is not a field.  Records refuse assignment and deletion, ``replace``
makes its copy through the class and so checks it again, and a
``cached_property`` computes once.
"""

from __future__ import annotations

import importlib
from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest

from lpbounds.ccbounds import _rect_family
from lpbounds.ccsynth import SynthParams
from lpbounds.errors import DimensionMismatchError, InfeasibleConstructionError, LpboundsError
from lpbounds.lp import Row
from lpbounds.model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    Subcube,
    TwoPartyFunction,
)
from lpbounds.qcsynth import BuildStats
from lpbounds.records import Record, replace
from lpbounds.trees import Leaf, PNode

MODULES = sorted(p.stem for p in (Path(__file__).resolve().parent.parent / "src" / "lpbounds").glob("*.py"))

COST = Row(1, (0,), (1,), "=", 0, "objective")

# per record class, its fields in order, each with two values that give a valid
# record together; None stands for two distinct values of a field nothing checks
RECORDS = {
    "ccbounds.SrecInstance": {
        "f": (TwoPartyFunction(((0, 1), (1, 1))), TwoPartyFunction(((1, 0), (0, 0)))),
        "z": (0, 1), "eps": (F(1, 8), F(1, 4)), "delta": (F(1, 8), F(0)),
        "mu": (None, ProductDistribution2P.uniform(2, 2)),
    },
    "ccbounds.ChainReport": dict.fromkeys(["eps", "prt", "rprt", "srec0", "srec1"]),
    "ccsynth.Decomposition": dict.fromkeys(["case", "restricted", "sub_eps", "block"]),
    "ccsynth.SynthParams": {
        "eps": (F(0), F(1, 2)), "delta": (F(1, 16), F(1, 81)), "delta_root": (F(1, 2), F(1, 3)),
        "big_delta": None, "s": (0, 3), "t": (1, 2),
    },
    "ccsynth.CCSynthReport": dict.fromkeys(
        ["params", "tree", "balanced", "adv_floor", "twentieth_applicable", "notes"]),
    "cli._Command": dict.fromkeys(["run", "help", "flags", "inputs", "writes_tree"]),
    "lp.Row": {
        "s": (1, 2), "cols": ((0, 1), (0, 2)), "coeffs": ((1, 1), (1, 3)), "rel": ("<=", ">="),
        "rhs": (1, 2), "label": ("a", "b"),
    },
    "lp.LinearProgram": {
        "variables": (("x",), ("x", "y")), "cost": (COST, Row(2, (1,), (3,), "=", 0, "objective")),
        "rows": ((), (Row(1, (0,), (1,), ">=", 1, "cover"),)),
    },
    "lp.Violation": dict.fromkeys(["kind", "index", "label", "lhs", "rel", "rhs"]),
    "lp.LPSolution": dict.fromkeys(["value", "primal", "dual", "iterations", "phase1_iterations"]),
    "model.TwoPartyFunction": {"table": (((0, 1), (1, 0)), ((1, 1), (1, 0)))},
    "model.QueryFunction": {"n": (1, 2), "table": ((0, 1), (0, 1, 1, 1))},
    "model.Rectangle": {"rows": (1, 2), "cols": (3, 0)},
    "model.Subcube": {"n": (3, 2), "support": (1, 3), "values": (0, 2)},
    "model.ProductDistribution2P": {
        "row_weights": ((F(1, 2), F(1, 2)), (F(1), F(0))), "col_weights": ((F(1, 2),) * 2, (F(2),) * 2),
    },
    "model.BitProductDistribution": {"p": ((F(1, 2),), (F(1, 3), F(1)))},
    "oracle.OracleResult": dict.fromkeys(["best_error", "witness"]),
    "partition.BoostResult": dict.fromkeys(["weights", "votes", "achieved_error", "objective"]),
    "partition.LabelledFamily": dict.fromkeys(["tags", "members", "cost", "tag", "cells", "intersect"]),
    "qcbounds.QprtSolution": dict.fromkeys(["n", "weights"]),
    "qcbounds.BoostedQprt": dict.fromkeys(["solution", "votes", "achieved_error", "objective"]),
    "qcbounds.FeasibleSystem": dict.fromkeys(["n", "u", "w", "alpha0", "beta0", "alpha1", "beta1", "a", "b"]),
    "qcsynth.QCSynthReport": dict.fromkeys(
        ["qprt_value", "c", "gamma", "votes", "boosted_error", "system", "delta", "tree", "stats"]),
    "trees.Leaf": {"label": (0, 1)},
    "trees.PNode": {"speaker": ("A", "B"), "split": (1, 2), "inside": (Leaf(0), Leaf(1)),
                    "outside": (Leaf(1), Leaf(0))},
    "trees.DNode": dict.fromkeys(["bit", "child0", "child1"]),
}

# what a record stores beside its fields once it is made
DERIVED = {"lp.Row": {"fault", "unit"}, "partition.LabelledFamily": {"_covering"},
           "trees.PNode": {"children"}, "trees.DNode": {"children"}}


def _class(name):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"lpbounds.{module}"), cls)


def _values(name, side):
    """The field values of side 0 or 1 of ``name``'s table entry."""
    return {field: (f"{field}{side}",) if pair is None else pair[side]
            for field, pair in RECORDS[name].items()}


def _unchecked(cls, values):
    """A record of ``cls`` with ``values``, made without its checks."""
    record = cls.__new__(cls)
    vars(record).update(values)
    return record


def test_the_table_lists_every_record_class():
    found = set()
    for module in MODULES:
        for name, obj in vars(importlib.import_module(f"lpbounds.{module}")).items():
            if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == f"lpbounds.{module}":
                found.add(f"{module}.{name}")
    assert found - {"records.Record"} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_the_declared_ones_in_order(name):
    cls, values = _class(name), _values(name, 0)
    record = cls(**values)
    assert cls._fields == tuple(RECORDS[name])
    assert set(vars(record)) == set(values) | DERIVED.get(name, set())
    assert cls(*values.values()) == record
    assert repr(record) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_read_exactly_the_fields(name):
    cls, values, other = _class(name), _values(name, 0), _values(name, 1)
    record = cls(**values)
    assert record == cls(**values) and cls(**other) != record
    assert record != tuple(values.values())
    for field in values:
        assert _unchecked(cls, {**values, field: other[field]}) != record, field
    try:
        expected = hash(tuple(values.values()))
    except TypeError:  # a dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**values)) == expected


@pytest.mark.parametrize("name", DERIVED)
def test_what_post_init_stores_is_not_compared(name):
    cls, values = _class(name), _values(name, 0)
    record, changed = cls(**values), cls(**values)
    for attribute in DERIVED[name]:
        vars(changed)[attribute] = "changed"
    assert changed == record and hash(changed) == hash(record) and repr(changed) == repr(record)


def test_a_row_works_out_its_form_when_it_is_made():
    assert (Row(1, (0, 2), (3, 3), "<=", 1, "a").unit, Row(1, (0, 2), (1, 2), "<=", 1, "a").unit) == (3, None)
    assert Row(1, (2, 0), (1, 1), "<=", 1, "a").fault == "has columns out of order"


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_and_deletion_raise(name):
    record = _class(name)(**_values(name, 0))
    field = next(iter(RECORDS[name]))
    with pytest.raises(AttributeError, match="frozen"):
        setattr(record, field, 1)
    with pytest.raises(AttributeError, match="frozen"):
        setattr(record, "unknown", 1)
    with pytest.raises(AttributeError, match="frozen"):
        delattr(record, field)
    assert vars(record)[field] == _values(name, 0)[field]


@pytest.mark.parametrize("name", RECORDS)
def test_replace_makes_a_new_record_of_the_same_fields(name):
    record = _class(name)(**_values(name, 0))
    copy = replace(record)
    assert copy == record and copy is not record
    with pytest.raises(TypeError):
        replace(record, unknown=1)


@pytest.mark.parametrize(
    "record, changes, error, message",
    [
        (Subcube(3, 1, 0), {"values": 2}, DimensionMismatchError, "values must be a submask of support"),
        (Subcube(3, 1, 0), {"support": 8}, DimensionMismatchError, "support mask out of range"),
        (PNode("A", 1, Leaf(0), Leaf(1)), {"speaker": "C"}, DimensionMismatchError, "speaker must be A or B"),
        (SynthParams(F(0), F(1, 16), F(1, 2), F(1), 0, 1), {"delta": F(1, 8)},
         InfeasibleConstructionError, "delta is not the fourth power of delta_root"),
        (QueryFunction(1, (0, 1)), {"n": 2}, DimensionMismatchError, "table length 2 != 2"),
        (BitProductDistribution((F(1, 2),)), {"p": (F(2),)}, DimensionMismatchError, "marginal 2 outside"),
    ],
    ids=["subcube-values", "subcube-support", "pnode", "synth-params", "query", "bits"],
)
def test_replace_checks_again(record, changes, error, message):
    with pytest.raises(error, match=message):
        replace(record, **changes)


def test_replace_works_out_a_row_again():
    row = Row(2, (0, 1), (1, 1), "=", 2, "mass_0")
    assert row.key.startswith(b"= 2 2 2 *1\n")
    relaxed = replace(row, rel="<=")
    assert (relaxed.rel, relaxed.unit, relaxed.fault, relaxed.key[:2]) == ("<=", 1, None, b"<=")
    with pytest.raises(LpboundsError, match="columns out of order"):
        _class("lp.LinearProgram")(("x", "y"), COST, (replace(row, cols=(1, 0)),))


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_takes_each_field_once(name):
    cls, values = _class(name), _values(name, 0)
    first = next(iter(values))
    calls = [((), {}), ((*values.values(), 0), {}), ((values[first],), {first: values[first]}),
             ((), {**values, "unknown": 0})]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_a_default_field_takes_its_class_value():
    cls = _class("ccbounds.SrecInstance")
    values = _values("ccbounds.SrecInstance", 0)
    assert cls(values["f"], 0, F(1, 8), F(1, 8)) == cls(**values)
    assert "mu" not in vars(cls(values["f"], 0, F(1, 8), F(1, 8)))


CACHED = [
    ("labels", lambda: TwoPartyFunction(((0, 1), (1, 0)))),
    ("total", lambda: ProductDistribution2P.uniform(2, 4)),
    ("point_weights", lambda: ProductDistribution2P.uniform(2, 4)),
    ("point_weights", lambda: BitProductDistribution.uniform(3)),
    ("key", lambda: Row(1, (0, 1), (1, 2), "<=", 1, "a")),
    *((name, lambda: replace(_rect_family(2, 2)))
      for name in ("containing", "_position", "_costs", "_columns", "_label_columns", "_mass_rows")),
]


def test_the_cached_table_names_every_cached_property():
    names = {(name, cls) for name, make in CACHED for cls in [type(make())]}
    assert names == {
        (name, cls) for cls in map(_class, RECORDS)
        for name, attribute in vars(cls).items() if isinstance(attribute, cached_property)
    }


@pytest.mark.parametrize("name, make", CACHED, ids=[f"{name}" for name, _ in CACHED])
def test_a_cached_property_computes_once(monkeypatch, name, make):
    record = make()
    prop = vars(type(record))[name]
    calls = []
    compute = prop.func
    monkeypatch.setattr(prop, "func", lambda self: calls.append(self) or compute(self))
    first = getattr(record, name)
    assert getattr(record, name) is first and vars(record)[name] is first
    assert calls == [record]
    assert make() == record  # the cached value is not a field


def test_build_stats_start_at_zero_and_share_no_list():
    a, b = BuildStats(), BuildStats()
    a.internal_nodes += 1
    a.elimination_values.append(F(1))
    assert (b.internal_nodes, b.elimination_values, b.error) == (0, [], None)
    assert (a.internal_nodes, a.guess_leaves, a.elimination_values) == (1, 0, [F(1)])
