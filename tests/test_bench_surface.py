"""The library names the benchmark under ``bench/`` reaches still exist.

``bench/test_bench.py`` runs the benchmark itself and takes minutes, so it
is not part of the tier-1 suite.  These checks take a second and fail when a
change to ``src/lpbounds`` removes or renames a name the benchmark looks up:
every function ``layers.instrument`` wraps, every ``lib.<module>.<name>``
that ``bench/*.py`` calls, and the result fields its observers and checks
read.  ``bench/`` is only read, never changed.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# ``run.py`` passes ``lib.lp`` to its helpers as ``lp``
ALIASES = {"run.py": {"lp": "lp"}}

# the fields of library results that the layer observers, the workload
# checks and the certificate re-check read
RESULT_FIELDS = {
    ("lp", "LinearProgram"): ("variables", "constraints", "objective_value"),
    ("lp", "LPSolution"): ("status", "value", "primal", "dual", "iterations", "phase1_iterations"),
    ("ccbounds", "ChainReport"): ("prt", "rprt", "srec0", "srec1"),
    ("ccsynth", "CCSynthReport"): ("leaves",),
    ("qcbounds", "BoostedQprt"): ("solution",),
    ("qcbounds", "QprtSolution"): ("weights",),
    ("qcsynth", "BuildStats"): ("internal_nodes", "guess_leaves"),
    ("model", "ProductDistribution2P"): ("total",),
}


@pytest.fixture(scope="module")
def run():
    """``bench/run.py``, imported the way the harness imports its siblings."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingTracer:
    """Records what ``instrument`` would wrap and wraps nothing."""

    def __init__(self) -> None:
        self.wrapped: list[tuple[object, str]] = []

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        self.wrapped.append((owner, attr))

    def inside(self, name: str) -> bool:
        return False


def _library_paths(path: Path, aliases: dict[str, str]) -> set[tuple[str, ...]]:
    """Every attribute path ``lib.<module>.<name>...`` in ``path``.

    ``self.lib`` counts as ``lib``, and a name bound to ``lib.<module>``
    (``cc, syn = lib.ccbounds, lib.ccsynth``) or listed in ``aliases``
    counts as that module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = dict(aliases)

    def chain(node) -> list[str] | None:
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        attrs.reverse()
        root = node.id
        if root == "self" and attrs:
            root = attrs.pop(0)
        if root == "lib":
            return attrs
        return [aliases[root], *attrs] if root in aliases else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            for name, expr in pairs:
                module = chain(expr)
                if isinstance(name, ast.Name) and module is not None and len(module) == 1:
                    aliases[name.id] = module[0]
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs = chain(node)
            if attrs is not None and len(attrs) >= 2:
                paths.add(tuple(attrs))
    return paths


def test_every_wrapped_function_exists(run):
    lib = run.import_library()
    tracer = RecordingTracer()
    run.instrument(tracer, lib, None)
    assert len(tracer.wrapped) > 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr in tracer.wrapped
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_name_the_bench_calls_exists(run):
    lib = run.import_library()
    paths = set()
    for path in sorted(BENCH.glob("*.py")):
        paths |= _library_paths(path, ALIASES.get(path.name, {}))
    # the scan sees the names of each form: lib.<m>, self.lib.<m>, an alias, run.py's lp
    assert {("ccsynth", "SynthParams"), ("ccsynth", "evaluate"), ("model", "QueryFunction"),
            ("lp", "check_dual_feasible"), ("cli", "main")} <= paths
    missing = []
    for attrs in sorted(paths):
        obj = lib
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(".".join(attrs))
                break
            obj = getattr(obj, attr)
    assert missing == []


@pytest.mark.parametrize("owner, names", RESULT_FIELDS.items(),
                         ids=[f"{m}.{c}" for m, c in RESULT_FIELDS])
def test_every_result_field_the_bench_reads_exists(run, owner, names):
    module, cls = owner
    cls = getattr(getattr(run.import_library(), module), cls)
    have = set(getattr(cls, "_fields", ())) | set(dir(cls))
    assert [name for name in names if name not in have] == []


def test_library_path_scan_sees_each_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "cc, syn = lib.ccbounds, lib.ccsynth\n"
        "self.lib.cli.main([])\n"
        "syn.SynthParams(1)\n"
        "lp.solve\n"
        "lib.model.ProductDistribution2P.uniform(4, 4)\n"
        "other.ccsynth.evaluate\n"
    )
    assert _library_paths(source, {"lp": "lp"}) == {
        ("cli", "main"), ("ccsynth", "SynthParams"), ("lp", "solve"),
        ("model", "ProductDistribution2P"), ("model", "ProductDistribution2P", "uniform"),
    }
