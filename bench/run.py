#!/usr/bin/env python3
"""Benchmark of the lpbounds library: three workloads, exact checks, traced layers.

Run every workload, each in a fresh process, untraced and then traced, and
print every metric with its unit plus fail rate and tracing overhead:

    python3 bench/run.py [--seed N]

Run one workload in this process and print one JSON result as the last
line; ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones and writes the spans to ``.lpbench/trace-<workload>-seed<N>.jsonl``:

    python3 bench/run.py --workload chain --seed 1 --seconds 10 --trace 0

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  Every time
is read on the clock of ``clock.py``: seconds at a fixed reference speed
of the host, which stay steady while other tenants of a shared host speed
it up and slow it down.  ``setup_s`` (imports, inputs and, for
``certify``, filling a private solution cache) is the median of set-ups
in fresh processes: this one and ``SETUP_SAMPLES - 1`` children, run one
after the other.  The timed phase runs whole passes of the workload's
fixed job list until ``--seconds`` have passed, at least one pass.  After
each pass and outside its timing, every job's result is compared with its
exact expected value and every optimal LP solution is re-certified with
the public ``lp`` checks.  Last, the inputs drawn from ``--seed`` run and
are checked the same way.  All of this feeds ``failed``.
Everything the run writes stays under ``.lpbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from clock import SpeedClock
from layers import END_TO_END, PER_LAYER, instrument, per_layer
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".lpbench"
MODULES = ("lp", "ccbounds", "qcbounds", "ccsynth", "qcsynth", "oracle", "serialize", "cli",
           "families", "model", "rational")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 900


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
    }


class SolveLog:
    """Wraps ``lp.solve`` to keep (job index, program, solution) for re-certification."""

    def __init__(self, lp) -> None:
        self.lp = lp
        self.original = lp.solve
        self.job = None
        self.entries: list[tuple[int, object, object]] = []

        def solve(program):
            sol = self.original(program)
            self.entries.append((self.job, program, sol))
            return sol

        lp.solve = solve

    def restore(self) -> None:
        self.lp.solve = self.original


def recertify(lp, program, sol) -> list[str]:
    if sol.status != "optimal":
        return [f"LP status {sol.status}"]
    bad = lp.check_feasible(program, sol.primal) or lp.check_dual_feasible(program, sol.dual)
    if bad:
        return [f"certificate re-check failed: {bad[0]}"]
    if not lp.dual_objective(program, sol.dual) == program.objective_value(sol.primal) == sol.value:
        return ["strong duality re-check failed"]
    return []


def run_job(fn):
    """(result, problems); an exception is a failed job."""
    try:
        return fn(), []
    except Exception:  # a job that raises counts as failed; the run goes on
        return None, [traceback.format_exc()]


def check_outcomes(outcomes, checks: dict, log: SolveLog, lp, certify_spans: list) -> list[tuple[str, list[str]]]:
    """(job, problems) for each (job, result, problems) outcome.

    A job that has not failed yet is checked against its expected values,
    and every LP solution it produced is re-certified; the (start, end)
    of each re-certification goes to ``certify_spans``.
    """
    for job, result, problems in outcomes:
        if not problems:
            found, error = run_job(lambda: checks[job](result))
            problems += error or found
    for index, program, sol in log.entries:
        t0 = time.perf_counter()
        outcomes[index][2].extend(recertify(lp, program, sol))
        certify_spans.append((t0, time.perf_counter()))
    log.entries.clear()
    return [(job, problems) for job, _, problems in outcomes]


def prepare() -> bool:
    """Make this process import ``src/lpbounds`` with no solution cache set."""
    if not (ROOT / "src" / "lpbounds" / "__init__.py").is_file():
        print(f"error: no lpbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    os.environ.pop("LPBOUNDS_CACHE", None)  # chain and qprt run cold
    sys.path.insert(0, str(ROOT / "src"))
    SCRATCH.mkdir(exist_ok=True)
    return True


def import_library() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"lpbounds.{m}") for m in MODULES})


def set_up(name: str, work: Path):
    """Import the library and set the workload up: (lib, workload, (start, end))."""
    t0 = time.perf_counter()
    lib = import_library()
    workload = WORKLOADS[name]()
    workload.setup(lib, work)
    return lib, workload, (t0, time.perf_counter())


def setup_only(name: str) -> int:
    """Time one set-up in this fresh process and print its seconds."""
    if not prepare():
        return 2
    work = SCRATCH / f"{name}-setup-{os.getpid()}"
    clock = SpeedClock()
    clock.start()
    try:
        span = set_up(name, work)[2]
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": clock.seconds(*span)}))
    return 0


def setup_in_child(name: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "LPBOUNDS_CACHE"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} in a child process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not prepare():
        return 2
    work = SCRATCH / f"{name}-seed{seed}-{os.getpid()}"
    clock = SpeedClock()
    clock.start()
    try:
        lib, workload, setup_span = set_up(name, work)
        cache_dir = os.environ.get("LPBOUNDS_CACHE")

        log = SolveLog(lib.lp)
        tracer = Tracer() if trace else None
        if tracer:
            instrument(tracer, lib, cache_dir)
        jobs = workload.jobs()
        checks = {job: check for job, _, check in jobs}
        checked, job_spans, pass_spans, certify_spans = [], [], [], []
        while not pass_spans or sum(t1 - t0 for t0, t1 in pass_spans) < seconds:
            outcomes = []
            pass_start = time.perf_counter()
            for job, fn, _ in jobs:
                log.job = len(outcomes)
                span = tracer.open("bench.job", job=job, pass_index=len(pass_spans)) if tracer else None
                t0 = time.perf_counter()
                result, problems = run_job(fn)
                job_spans.append((job, t0, time.perf_counter()))
                if span:
                    tracer.close(span)
                outcomes.append((job, result, problems))
            pass_spans.append((pass_start, time.perf_counter()))
            # checks run between passes, outside the timed region, and call no traced function
            checked += check_outcomes(outcomes, checks, log, lib.lp, certify_spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.restore()
        clock.stop()

        timed_jobs = len(checked)
        outcomes = []
        for job, fn, check in workload.extras(seed):
            log.job = len(outcomes)
            outcomes.append((job, *run_job(fn)))
            checks[job] = check
        checked += check_outcomes(outcomes, checks, log, lib.lp, [])
        log.restore()
    finally:
        if clock.running:
            clock.stop()
        shutil.rmtree(work, ignore_errors=True)
    failed = [(job, problems) for job, problems in checked if problems]
    for job, problems in failed:
        print(f"FAILED {job}: {problems[0]}", file=sys.stderr)

    pass_times = [clock.seconds(t0, t1) for t0, t1 in pass_spans]
    job_times = [(job, clock.seconds(t0, t1)) for job, t0, t1 in job_spans]
    # job_p50_s is the median of each job's median over the passes, so it
    # does not jump between job kinds as the number of passes changes
    job_medians = {job: statistics.median(t for j, t in job_times if j == job) for job, _, _ in jobs}
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(pass_times),
        "job_samples": len(job_times),
        "job_median_s": job_medians,
        "timed_jobs": timed_jobs,
        "extra_jobs": len(checked) - timed_jobs,
        "wall_uncorrected_s": statistics.median(t1 - t0 for t0, t1 in pass_spans),
        "calibrations": clock.calibrations,
        **environment(),
    }
    if tracer:
        for span in tracer.spans:
            span["start"], span["end"] = clock.reading(span["start"]), clock.reading(span["end"])
        trace_path = SCRATCH / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path, info)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        certify_s = sum(clock.seconds(t0, t1) for t0, t1 in certify_spans)
        metrics = per_layer(tracer.spans, len(pass_times), certify_s, statistics.median(pass_times))
    else:
        # this process's set-up is one sample; fresh child processes give the others
        setups = [clock.seconds(*setup_span)] + [setup_in_child(name) for _ in range(SETUP_SAMPLES - 1)]
        info["setup_samples_s"] = setups
        values = {
            "wall_s": statistics.median(pass_times),
            "job_p50_s": statistics.median(job_medians.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}

    print(f"workload {name}  seed {seed}  passes {info['passes']}  job samples {info['job_samples']}  "
          f"fail_rate {len(failed)}/{len(checked)}")
    print(f"python {info['python']}  nproc {info['nproc']}  scipy importable {info['scipy_importable']}")
    for metric, m in metrics.items():
        print(f"  {metric:26s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(seed: int) -> int:
    """Each workload untraced then traced, one fresh process at a time."""
    env = {k: v for k, v in os.environ.items() if k != "LPBOUNDS_CACHE"}
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} (trace {trace}) exited {proc.returncode}")
                return 1
            summary.setdefault(name, {})["traced" if trace else "untraced"] = {
                "info": json.loads(lines[-2])["info"], **json.loads(lines[-1])}

    for name, runs in summary.items():
        plain, traced = runs["untraced"], runs["traced"]
        info = plain["info"]
        print(f"\n== {name}: seed {seed}, {info['passes']} passes, {info['job_samples']} job samples, "
              f"python {info['python']}, nproc {info['nproc']}, scipy importable {info['scipy_importable']}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:26s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'wall (uncorrected)':26s} {info['wall_uncorrected_s']:>14.6g} s")
        for run in (plain, traced):
            label = "fail_rate" if run is plain else "fail_rate (traced)"
            print(f"  {label:26s} {run['failed'] / run['attempted']:>14.6g} ({run['failed']}/{run['attempted']})")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  {'tracing overhead':26s} {overhead:>14.6g} s")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:26s} {m['value']:>14.6g} {m['unit']}")
    out = SCRATCH / "summary.json"
    SCRATCH.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    ok = all(run["correct"] for runs in summary.values() for run in runs.values())
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of --workload in this process; run_workload starts these")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed)
    if args.setup_only:
        return setup_only(args.workload)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
