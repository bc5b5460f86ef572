"""Metric definitions, the wrappers that trace each layer, and per-layer metrics.

Layers are the modules of ``src/lpbounds``.  ``model``, ``rational`` and
``boosting`` are reached only through the modules below and are timed
inside their callers.  Each wrapper goes on the module attribute the
caller looks up: ``ccbounds`` and ``qcbounds`` call ``lpmod.solve``, so
``lp.solve`` is wrapped on the ``lp`` module; ``cli`` imports the
pipelines and oracles by name, so those are wrapped on ``cli``.
"""

from __future__ import annotations

import os

from spans import self_times, summarize

# name -> (unit, better, bound): measured with tracing off, on the clock of
# ``clock.py``, which corrects for the speed of a shared host.  chain and
# qprt run one pass of their job list per run, certify several.
END_TO_END = {
    "wall_s": ("s", "lower", 0.2),
    "job_p50_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, the end-to-end metric it should move and where)
PER_LAYER = {
    "lp.solve_s": ("s", "lower", "wall_s, job_p50_s on chain and qprt; flat on certify (cache hits)"),
    "lp.solves": ("count", "lower", "wall_s on chain and qprt"),
    "lp.pivots": ("count", "lower", "wall_s, job_p50_s on chain and qprt; 0 on certify"),
    "lp.phase1_pivots": ("count", "lower", "wall_s on qprt (maj5 is mostly phase 1)"),
    "lp.s_per_pivot": ("s", "lower", "wall_s, job_p50_s on chain and qprt"),
    "lp.certify_s": ("s", "lower", "certificate share of lp.solve_s on chain and qprt"),
    "lp.cache_stores": ("count", "lower", "wall_s on certify; 0 on every workload"),
    "lp.cols": ("count", "lower", "peak_rss_mb on every workload"),
    "lp.rows": ("count", "lower", "peak_rss_mb on every workload"),
    "ccbounds.build_s": ("s", "lower", "wall_s on chain (about 1%)"),
    "ccbounds.self_s": ("s", "lower", "wall_s on chain"),
    "qcbounds.build_s": ("s", "lower", "wall_s on qprt"),
    "qcbounds.boost_s": ("s", "lower", "wall_s on certify"),
    "qcbounds.boosted_support": ("count", "lower", "wall_s on certify"),
    "qcbounds.extract_s": ("s", "lower", "wall_s on certify"),
    "qcbounds.self_s": ("s", "lower", "wall_s on qprt and certify"),
    "ccsynth.pipeline_self_s": ("s", "lower", "wall_s on certify"),
    "ccsynth.synthesize_s": ("s", "lower", "wall_s on certify"),
    "ccsynth.balance_s": ("s", "lower", "wall_s on certify"),
    "ccsynth.leaves": ("count", "lower", "wall_s on certify"),
    "ccsynth.vacuous": ("count", "lower", "none: one-leaf synth-cc results on certify"),
    "ccsynth.self_s": ("s", "lower", "wall_s on certify"),
    "qcsynth.pipeline_self_s": ("s", "lower", "wall_s on certify"),
    "qcsynth.build_tree_s": ("s", "lower", "wall_s on certify"),
    "qcsynth.internal_nodes": ("count", "lower", "wall_s on certify"),
    "qcsynth.guess_leaves": ("count", "lower", "wall_s on certify"),
    "qcsynth.self_s": ("s", "lower", "wall_s on certify"),
    "oracle.cc_s": ("s", "lower", "wall_s on certify"),
    "oracle.qc_s": ("s", "lower", "wall_s on certify"),
    "oracle.calls": ("count", "lower", "wall_s on certify"),
    "serialize.s": ("s", "lower", "job_p50_s, wall_s on certify"),
    "serialize.bytes": ("count", "lower", "job_p50_s, wall_s on certify"),
    "cli.self_s": ("s", "lower", "job_p50_s, wall_s on certify"),
    "cli.commands": ("count", "lower", "job_p50_s, wall_s on certify"),
    "bench.self_s": ("s", "lower", "none: harness time outside every layer"),
    "trace.wall_s": ("s", "lower", "none: traced wall_s; minus wall_s it is the tracing overhead"),
}

SERIALIZE_READERS = ("parse_function", "parse_distribution", "parse_protocol_tree",
                     "parse_decision_tree", "load_records")
SERIALIZE_WRITERS = ("write_function", "write_distribution", "write_protocol_tree",
                     "write_decision_tree", "dump_records")
SERIALIZE_OTHERS = ("function_hash", "distribution_hash", "bound_record", "protocol_summary_record",
                    "decision_summary_record", "feasible_system_record")


def instrument(tracer, lib, cache_dir: str | None) -> None:
    """Wrap the public functions of every layer on ``lib``'s modules."""

    def cache_stamp() -> int | None:
        """The cache directory's mtime; writing an entry's tmp file and renaming it change it."""
        try:
            return os.stat(cache_dir).st_mtime_ns if cache_dir else None
        except FileNotFoundError:
            return None

    stamp = [cache_stamp()]

    def on_solve(span, args, sol):
        program = args[0]
        counts = span["counts"]
        counts.update(solves=1, cols=len(program.variables), rows=len(program.constraints))
        now = cache_stamp()
        if now != stamp[0]:
            counts["stores"] = 1
        stamp[0] = now
        # only optimal solutions are cached; any other solve, or one that
        # wrote the cache (a miss or a rejected entry), ran the simplex
        if cache_dir is None or sol.status != "optimal" or "stores" in counts:
            counts.update(cold=1, pivots=sol.iterations, phase1_pivots=sol.phase1_iterations)

    def on_synthesize(span, args, tree):
        span["counts"]["leaves"] = lib.ccsynth.leaf_count(tree)

    def on_pipeline(span, args, report):
        # verify replays synth-cc; count each synthesized result once
        if report.leaves == 1 and not tracer.inside("cli.verify"):
            span["counts"]["vacuous"] = 1

    def on_tree(span, args, result):
        stats = result[1]
        span["counts"].update(internal_nodes=stats.internal_nodes, guess_leaves=stats.guess_leaves)

    def serialize_bytes(text: str, span) -> None:
        parent = span["parent"]
        if parent is None or not tracer.spans[parent]["name"].startswith("serialize."):
            span["counts"]["bytes"] = len(text.encode())

    tracer.wrap(lib.lp, "solve", "lp.solve", on_solve)
    for name in ("build_srec_lp", "build_prt_lp", "build_rprt_lp"):
        tracer.wrap(lib.ccbounds, name, "ccbounds.build")
    tracer.wrap(lib.ccbounds, "check_chain", "ccbounds.check_chain")
    tracer.wrap(lib.ccbounds, "srec_bound", "ccbounds.srec_bound")
    tracer.wrap(lib.ccsynth, "srec_bound", "ccbounds.srec_bound")
    tracer.wrap(lib.qcbounds, "build_qprt_lp", "qcbounds.build")
    tracer.wrap(lib.qcbounds, "qprt_bound", "qcbounds.qprt_bound")
    tracer.wrap(lib.qcbounds, "qprt_solution", "qcbounds.qprt_solution")
    tracer.wrap(lib.qcbounds, "boost_qprt", "qcbounds.boost",
                lambda span, args, boosted: span["counts"].update(boosted_support=len(boosted.solution.weights)))
    tracer.wrap(lib.qcbounds, "extract_feasible", "qcbounds.extract")
    tracer.wrap(lib.cli, "protocol_pipeline", "ccsynth.pipeline", on_pipeline)
    tracer.wrap(lib.ccsynth, "synthesize", "ccsynth.synthesize", on_synthesize)
    tracer.wrap(lib.ccsynth, "balance", "ccsynth.balance")
    tracer.wrap(lib.cli, "synthesis_pipeline", "qcsynth.pipeline")
    tracer.wrap(lib.qcsynth, "build_decision_tree", "qcsynth.build_tree", on_tree)
    tracer.wrap(lib.cli, "oracle_cc", "oracle.cc")
    tracer.wrap(lib.cli, "oracle_qc", "oracle.qc")
    for name in SERIALIZE_READERS:
        tracer.wrap(lib.serialize, name, f"serialize.{name}",
                    lambda span, args, res: serialize_bytes(args[0], span))
    for name in SERIALIZE_WRITERS:
        tracer.wrap(lib.serialize, name, f"serialize.{name}",
                    lambda span, args, res: serialize_bytes(res, span))
    for name in SERIALIZE_OTHERS:
        tracer.wrap(lib.serialize, name, f"serialize.{name}")
    tracer.wrap(lib.cli, "main", lambda argv: f"cli.{argv[0]}")


def per_layer(spans: list[dict], passes: int, certify_s: float, traced_wall_s: float) -> dict:
    """Every PER_LAYER metric, per pass of the fixed job list.

    ``certify_s`` is the time the certificate re-checks of all passes took,
    ``traced_wall_s`` the median pass time of the traced run.
    """
    rows = summarize(spans)

    def total(name, key="total_s"):
        return rows[name][key] if name in rows else 0.0

    def layer(prefix, key="self_s"):
        return sum(row[key] for name, row in rows.items() if name.startswith(prefix + "."))

    cold_s = sum(own for span, own in zip(spans, self_times(spans))
                 if span["name"] == "lp.solve" and span["counts"].get("cold"))
    pivots = total("lp.solve", "pivots")
    raw = {
        "lp.solve_s": total("lp.solve", "self_s"),
        "lp.solves": total("lp.solve", "solves"),
        "lp.pivots": pivots,
        "lp.phase1_pivots": total("lp.solve", "phase1_pivots"),
        "lp.certify_s": certify_s,
        "lp.cache_stores": total("lp.solve", "stores"),
        "lp.cols": total("lp.solve", "cols"),
        "lp.rows": total("lp.solve", "rows"),
        "ccbounds.build_s": total("ccbounds.build"),
        "ccbounds.self_s": layer("ccbounds"),
        "qcbounds.build_s": total("qcbounds.build"),
        "qcbounds.boost_s": total("qcbounds.boost"),
        "qcbounds.boosted_support": total("qcbounds.boost", "boosted_support"),
        "qcbounds.extract_s": total("qcbounds.extract"),
        "qcbounds.self_s": layer("qcbounds"),
        "ccsynth.pipeline_self_s": total("ccsynth.pipeline", "self_s"),
        "ccsynth.synthesize_s": total("ccsynth.synthesize"),
        "ccsynth.balance_s": total("ccsynth.balance"),
        "ccsynth.leaves": total("ccsynth.synthesize", "leaves"),
        "ccsynth.vacuous": total("ccsynth.pipeline", "vacuous"),
        "ccsynth.self_s": layer("ccsynth"),
        "qcsynth.pipeline_self_s": total("qcsynth.pipeline", "self_s"),
        "qcsynth.build_tree_s": total("qcsynth.build_tree"),
        "qcsynth.internal_nodes": total("qcsynth.build_tree", "internal_nodes"),
        "qcsynth.guess_leaves": total("qcsynth.build_tree", "guess_leaves"),
        "qcsynth.self_s": layer("qcsynth"),
        "oracle.cc_s": total("oracle.cc"),
        "oracle.qc_s": total("oracle.qc"),
        "oracle.calls": layer("oracle", "calls"),
        "serialize.s": layer("serialize"),
        "serialize.bytes": layer("serialize", "bytes"),
        "cli.self_s": layer("cli"),
        "cli.commands": layer("cli", "calls"),
        "bench.self_s": layer("bench"),
    }
    out = {}
    for name, value in raw.items():
        unit = PER_LAYER[name][0]
        value /= passes
        out[name] = round(value) if unit == "count" else value
    out["lp.s_per_pivot"] = cold_s / pivots if pivots else 0.0
    out["trace.wall_s"] = traced_wall_s
    return {name: {"value": out[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
