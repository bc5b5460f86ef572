"""Checks of the benchmark itself; about five minutes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clock import SpeedClock
from layers import END_TO_END, PER_LAYER, instrument
from run import import_library
from spans import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# exact per-pass counts on the fixed job lists
EXPECTED_COUNTS = {
    "chain": {"lp.pivots": 3670, "lp.solves": 20, "lp.cache_stores": 0},
    "qprt": {"lp.pivots": 2501, "lp.solves": 4, "lp.cache_stores": 0},
    "certify": {"lp.pivots": 0, "lp.cache_stores": 0, "ccsynth.vacuous": 5},
}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}


def test_clock_leaves_calibrations_out():
    clock = SpeedClock()
    clock.start()
    t0 = clock.starts[0]
    clock._calibrate()
    t1 = clock.starts[-1] + clock.costs[-1]
    clock.stop()
    assert clock.reading(t0) == 0.0
    assert clock.reading(clock.starts[1]) == clock.reading(t1) > 0.0
    assert clock.seconds(t0, clock.starts[-1]) > clock.seconds(t0, t1)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat(workload):
    results = []
    for seed in (0, 1):
        proc = run(workload, seed, trace=1)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)
        results.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert results[0] == results[1]
    for name, value in EXPECTED_COUNTS[workload].items():
        assert results[0][name] == value, name


def test_a_rejected_cache_entry_counts_as_a_cold_solve(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    lib = import_library()
    program = lib.ccbounds.build_prt_lp(lib.families.make_function("and", 2, "cc"), Fraction(1, 8))
    lib.lp.set_cache_dir(str(tmp_path))
    tracer = Tracer()
    try:
        instrument(tracer, lib, str(tmp_path))
        lib.lp.solve(program)  # a miss: solved and stored
        lib.lp.solve(program)  # a hit
        (entry,) = tmp_path.glob("*.json")
        record = json.loads(entry.read_text())
        record["value"] = "0"  # the certificate re-check on load now rejects the entry
        entry.write_text(json.dumps(record))
        lib.lp.solve(program)  # solved and stored again
    finally:
        tracer.restore()
        lib.lp.set_cache_dir(None)
    miss, hit, rejected = (span["counts"] for span in tracer.spans)
    assert (miss.get("stores"), hit.get("stores"), rejected.get("stores")) == (1, None, 1)
    assert miss["pivots"] == rejected["pivots"] > 0
    assert "pivots" not in hit


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("chain", 0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
