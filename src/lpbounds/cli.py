"""Command-line front end.

Commands: ``bounds``, ``synth-cc``, ``synth-qc``, ``oracle``, ``verify``,
``gen``.  Every command that computes something writes a report of
line-delimited JSON records (stable key order): a ``run`` record naming
the command, arguments, and input hashes; content records; and a final
``summary`` record whose ``pass`` field drives the exit code.  Reports are
deterministic byte-for-byte; wall-clock timing goes to stderr only.

``verify`` replays a report: it re-checks the recorded input hashes,
recomputes the whole command in memory, and compares records byte-wise.

The environment variable ``LPBOUNDS_CACHE`` (a directory) enables on-disk
caching of LP solutions; cached entries are re-verified on load.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import families, lp as lpmod, serialize
from .ccbounds import (
    SrecInstance,
    check_chain,
    prt_bound,
    rprt_bound,
    srec_bound,
)
from .ccsynth import balance_depth_target, protocol_pipeline
from .errors import LpboundsError, ParseError
from .model import (
    BitProductDistribution,
    ProductDistribution2P,
    QueryFunction,
    TwoPartyFunction,
)
from .oracle import oracle_cc, oracle_qc
from .qcbounds import qprt_bound
from .qcsynth import synthesis_pipeline
from .rational import format_rational, parse_rational
from .trees import advantage, check_fits, dtree_error, evaluate, leaf_count, protocol_error, tree_depth


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_record(command: str, args: dict, inputs: dict[str, str]) -> dict:
    return {
        "v": serialize.RECORD_VERSION,
        "record": "run",
        "command": command,
        "args": args,
        "inputs": inputs,
    }


def _summary(asserts: dict[str, bool]) -> dict:
    return {
        "v": serialize.RECORD_VERSION,
        "record": "summary",
        "asserts": asserts,
        "pass": all(asserts.values()) if asserts else True,
    }


def _load_cc(path: str) -> TwoPartyFunction:
    fn = serialize.parse_function(_read(path))
    if not isinstance(fn, TwoPartyFunction):
        raise ParseError(f"{path} holds a query function; a cc table is required")
    return fn


def _load_qc(path: str) -> QueryFunction:
    fn = serialize.parse_function(_read(path))
    if not isinstance(fn, QueryFunction):
        raise ParseError(f"{path} holds a cc table; a query function is required")
    return fn


# ---------------------------------------------------------------------------
# bounds


def run_bounds(args: dict) -> list[dict]:
    fn = serialize.parse_function(_read(args["function"]))
    fn_hash = serialize.function_hash(fn)
    eps = parse_rational(args["eps"])
    which = args["which"]
    records: list[dict] = []
    asserts: dict[str, bool] = {}

    if which == "qprt":
        if not isinstance(fn, QueryFunction):
            raise ParseError("qprt needs a qc function file")
        res = qprt_bound(fn, eps)
        records.append(serialize.bound_record("qprt", fn_hash, {"eps": args["eps"]}, res))
    elif which in ("prt", "rprt"):
        if not isinstance(fn, TwoPartyFunction):
            raise ParseError(f"{which} needs a cc function file")
        res = prt_bound(fn, eps) if which == "prt" else rprt_bound(fn, eps)
        records.append(serialize.bound_record(which, fn_hash, {"eps": args["eps"]}, res))
    elif which == "srec":
        if not isinstance(fn, TwoPartyFunction):
            raise ParseError("srec needs a cc function file")
        delta = parse_rational(args["delta"]) if args.get("delta") else eps
        mu = None
        if args.get("dist"):
            mu = serialize.parse_distribution(_read(args["dist"]))
            if not isinstance(mu, ProductDistribution2P):
                raise ParseError("srec needs a rows/cols product distribution")
        zs = [int(args["z"])] if args.get("z") is not None else [0, 1]
        for z in zs:
            res = srec_bound(SrecInstance(fn, z, eps, delta, mu))
            params = {
                "eps": args["eps"],
                "delta": format_rational(delta),
                "z": z,
                "distributional": mu is not None,
            }
            records.append(serialize.bound_record(res.kind, fn_hash, params, res))
    elif which == "chain":
        if not isinstance(fn, TwoPartyFunction):
            raise ParseError("chain needs a cc function file")
        rep = check_chain(fn, eps)
        prt_v, rprt_v, srec_v = rep.values
        records.append(
            {
                "v": serialize.RECORD_VERSION,
                "record": "chain",
                "fn_hash": fn_hash,
                "eps": args["eps"],
                "prt": format_rational(prt_v),
                "rprt": format_rational(rprt_v),
                "srec": format_rational(srec_v),
            }
        )
        asserts["chain prt>=rprt>=srec"] = prt_v >= rprt_v >= srec_v
    else:
        raise ParseError(f"unknown bound kind {which!r}")
    records.append(_summary(asserts))
    return records


# ---------------------------------------------------------------------------
# synthesis


def run_synth_cc(args: dict) -> tuple[list[dict], str | None]:
    fn = _load_cc(args["function"])
    mu = serialize.parse_distribution(_read(args["dist"]))
    if not isinstance(mu, ProductDistribution2P):
        raise ParseError("synth-cc needs a rows/cols product distribution")
    part = int(args["part"])
    k = int(args["k"]) if args.get("k") is not None else None
    rep = protocol_pipeline(fn, mu, part, k)
    records: list[dict] = []
    asserts: dict[str, bool] = {}
    base = {
        "v": serialize.RECORD_VERSION,
        "record": "cc-synthesis",
        "fn_hash": serialize.function_hash(fn),
        "dist_hash": serialize.distribution_hash(mu),
        "part": part,
        "k": k,
        "eps": format_rational(rep.eps),
        "delta": format_rational(rep.delta),
        "s": str(rep.s),
        "t": str(rep.t),
        "hypothesis_ok": rep.hypothesis_ok,
        "notes": list(rep.notes),
    }
    tree_text: str | None = None
    if rep.hypothesis_ok and rep.tree is not None and rep.balanced is not None:
        assert rep.adv is not None and rep.leaves is not None
        # assertions are recomputed from the serialized artifact, not from
        # the in-memory synthesis state
        unbalanced_text = serialize.write_protocol_tree(rep.tree)
        tree_text = serialize.write_protocol_tree(rep.balanced)
        parsed = serialize.parse_protocol_tree(unbalanced_text)
        parsed_balanced = serialize.parse_protocol_tree(tree_text)
        leaves = leaf_count(parsed)
        adv = advantage(parsed, fn, mu)
        balanced_depth = tree_depth(parsed_balanced)
        base.update(
            {
                "leaves": leaves,
                "depth": tree_depth(parsed),
                "balanced_depth": balanced_depth,
                "advantage": format_rational(adv),
                "advantage_floor": format_rational(rep.adv_floor),
                "twentieth_applicable": rep.twentieth_applicable,
            }
        )
        asserts["advantage >= floor"] = adv >= rep.adv_floor
        budget = 4 * math.comb(rep.s + rep.t, min(rep.s, rep.t)) - 1
        asserts["leaves within binomial budget"] = leaves <= budget
        asserts["balanced depth within target"] = balanced_depth <= balance_depth_target(
            leaves
        )
        asserts["balanced tree agrees pointwise"] = all(
            evaluate(parsed, x, y) == evaluate(parsed_balanced, x, y)
            for x in range(fn.nx)
            for y in range(fn.ny)
        )
        if part == 2 and k is not None:
            asserts["leaves <= 2^(4k^2)"] = leaves <= (1 << (4 * k * k))
        if rep.twentieth_applicable:
            asserts["advantage >= |mu|/20 - Delta*L"] = (
                adv >= mu.total / 20 - rep.big_delta * leaves
            )
        records.append(serialize.protocol_summary_record(parsed_balanced, adv))
    records.insert(0, base)
    records.append(_summary(asserts))
    return records, tree_text


def run_synth_qc(args: dict) -> tuple[list[dict], str | None]:
    fn = _load_qc(args["function"])
    mu = serialize.parse_distribution(_read(args["dist"]))
    if not isinstance(mu, BitProductDistribution):
        raise ParseError("synth-qc needs a bit-wise `p:` distribution")
    eps = parse_rational(args["eps"]) if args.get("eps") else Fraction(1, 8)
    delta = parse_rational(args["delta"]) if args.get("delta") else None
    rep = synthesis_pipeline(fn, mu, eps, delta)
    # recompute the asserted quantities from the serialized tree
    tree_text = serialize.write_decision_tree(rep.tree)
    parsed = serialize.parse_decision_tree(tree_text)
    depth = tree_depth(parsed)
    error = dtree_error(parsed, fn, mu)
    asserts = {
        "depth <= a*b": depth <= rep.depth_bound,
        "error <= budget": error <= rep.error_budget,
    }
    if rep.half_error_certified:
        asserts["error <= 0.49"] = error <= Fraction(49, 100)
    records = [
        {
            "v": serialize.RECORD_VERSION,
            "record": "qc-synthesis",
            "fn_hash": serialize.function_hash(fn),
            "dist_hash": serialize.distribution_hash(mu),
            "qprt": format_rational(rep.qprt_value),
            "c": rep.c,
            "gamma": format_rational(rep.gamma),
            "votes": rep.votes,
            "boosted_error": format_rational(rep.boosted_error),
            "delta": format_rational(rep.delta),
            "depth": depth,
            "depth_bound": rep.depth_bound,
            "error": format_rational(error),
            "error_budget": format_rational(rep.error_budget),
            "half_error_certified": rep.half_error_certified,
        },
        serialize.feasible_system_record(rep.system),
        serialize.decision_summary_record(
            parsed, error, {"a": rep.system.a, "b": rep.system.b}
        ),
        _summary(asserts),
    ]
    return records, tree_text


# ---------------------------------------------------------------------------
# oracle


def run_oracle(args: dict) -> list[dict]:
    fn = serialize.parse_function(_read(args["function"]))
    mu = serialize.parse_distribution(_read(args["dist"]))
    depth = int(args["depth"])
    asserts: dict[str, bool] = {}
    if isinstance(fn, TwoPartyFunction):
        if not isinstance(mu, ProductDistribution2P):
            raise ParseError("two-party oracle needs a rows/cols distribution")
        res = oracle_cc(fn, mu, depth)
        side, error, parse = "cc", protocol_error, serialize.parse_protocol_tree
    else:
        if not isinstance(mu, BitProductDistribution):
            raise ParseError("query oracle needs a `p:` distribution")
        res = oracle_qc(fn, mu, depth)
        side, error, parse = "qc", dtree_error, serialize.parse_decision_tree
    asserts["witness replays exactly"] = error(res.witness, fn, mu) == res.best_error
    records = [
        {
            "v": serialize.RECORD_VERSION,
            "record": "oracle",
            "side": side,
            "fn_hash": serialize.function_hash(fn),
            "dist_hash": serialize.distribution_hash(mu),
            "depth": depth,
            "best_error": format_rational(res.best_error),
        }
    ]
    if args.get("artifact"):
        tree = parse(_read(args["artifact"]))
        check_fits(tree, fn)
        measured = error(tree, fn, mu)
        records.append(
            {
                "v": serialize.RECORD_VERSION,
                "record": "sandwich",
                "artifact_depth": tree_depth(tree),
                "artifact_error": format_rational(measured),
                "oracle_error": format_rational(res.best_error),
            }
        )
        asserts["oracle <= artifact error"] = res.best_error <= measured
    records.append(_summary(asserts))
    return records


# ---------------------------------------------------------------------------
# gen / verify


def run_gen(args: dict) -> str:
    fn = families.make_function(args["family"], int(args["m"]), args["side"])
    return serialize.write_function(fn)


@dataclass(frozen=True)
class _Command:
    """A replayable command: its runner and what its run record holds."""

    run: Callable[[dict], object]  # records, or (records, tree text) if writes_tree
    args: dict[str, tuple[type, ...]]  # run-record args replayed by verify: the types main writes
    inputs: tuple[str, ...]  # the args naming input files, whose hashes it records
    writes_tree: bool


_S, _I, _S0, _I0 = (str,), (int,), (str, type(None)), (int, type(None))  # 0: null allowed

_COMMANDS = {
    "bounds": _Command(
        run_bounds,
        {"function": _S, "which": _S, "eps": _S, "delta": _S0, "z": _S0, "dist": _S0},
        ("function", "dist"),
        writes_tree=False,
    ),
    "synth-cc": _Command(
        run_synth_cc,
        {"function": _S, "dist": _S, "part": _S, "k": _I0},
        ("function", "dist"),
        writes_tree=True,
    ),
    "synth-qc": _Command(
        run_synth_qc,
        {"function": _S, "dist": _S, "eps": _S0, "delta": _S0},
        ("function", "dist"),
        writes_tree=True,
    ),
    "oracle": _Command(
        run_oracle,
        {"function": _S, "dist": _S, "depth": _I, "artifact": _S0},
        ("function", "dist", "artifact"),
        writes_tree=False,
    ),
}


def _run(command: _Command, args: dict) -> tuple[list[dict], str | None]:
    """Records and tree text (None for commands that write no tree)."""
    result = command.run(args)
    return result if command.writes_tree else (result, None)


def _check_run_record(run: dict) -> None:
    command, args = run.get("command"), run.get("args")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ParseError(f"cannot replay command {command!r}")
    needed = _COMMANDS[command].args
    if not isinstance(args, dict) or not all(key in args for key in needed):
        raise ParseError(f"{command} run record needs args {', '.join(needed)}")
    for key, types in needed.items():
        if type(args[key]) not in types:
            got, expected = type(args[key]).__name__, " or ".join(t.__name__ for t in types)
            raise ParseError(f"{command} run record arg {key} is {got}, not {expected}")
    if not isinstance(run.get("inputs", {}), dict):
        raise ParseError("run record inputs must map paths to hashes")


def run_verify(path: str) -> int:
    records = serialize.load_records(_read(path))
    run = records[0] if records else None
    if not isinstance(run, dict) or run.get("record") != "run":
        print(f"FAIL {path}: missing run record", file=sys.stderr)
        return 1
    _check_run_record(run)
    ok = True
    for ref, expected in run.get("inputs", {}).items():
        try:
            actual = _sha256(_read(ref))
        except OSError:
            print(f"FAIL input {ref}: unreadable")
            ok = False
            continue
        good = actual == expected
        print(f"{'PASS' if good else 'FAIL'} input {ref}")
        ok = ok and good
    if ok:
        recomputed = [run] + _run(_COMMANDS[run["command"]], run["args"])[0]
        same = serialize.dump_records(recomputed) == serialize.dump_records(records)
        print(f"{'PASS' if same else 'FAIL'} records reproduce byte-identically")
        ok = ok and same
        # the recomputed asserts in report key order; equal to the report's when the bytes match
        for rec in recomputed:
            if rec["record"] == "summary":
                for name, value in sorted(rec["asserts"].items()):
                    print(f"{'PASS' if value else 'FAIL'} {name}")
                    ok = ok and value
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring


def _emit(records: list[dict], out: str | None) -> int:
    text = serialize.dump_records(records)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    passed = all(
        rec.get("pass", True) for rec in records if rec.get("record") == "summary"
    )
    return 0 if passed else 1


def _rational_arg(text: str) -> str:
    try:
        parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpbounds",
        description="Exact LP bounds and certified tree synthesis for small Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="solve bound LPs")
    p.add_argument("function")
    p.add_argument("--which", required=True, choices=["srec", "prt", "rprt", "qprt", "chain"])
    p.add_argument("--eps", required=True, type=_rational_arg)
    p.add_argument("--delta", type=_rational_arg)
    p.add_argument("--z", choices=["0", "1"])
    p.add_argument("--dist")
    p.add_argument("--out")

    p = sub.add_parser("synth-cc", help="synthesize and balance a protocol tree")
    p.add_argument("function")
    p.add_argument("dist")
    p.add_argument("--part", required=True, choices=["1", "2"])
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--tree-out")

    p = sub.add_parser("synth-qc", help="synthesize a decision tree")
    p.add_argument("function")
    p.add_argument("dist")
    p.add_argument("--eps", type=_rational_arg)
    p.add_argument("--delta", type=_rational_arg)
    p.add_argument("--out")
    p.add_argument("--tree-out")

    p = sub.add_parser("oracle", help="optimal bounded-depth tree by brute force")
    p.add_argument("function")
    p.add_argument("dist")
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--artifact")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="replay a report and re-check every assertion")
    p.add_argument("report")

    p = sub.add_parser("gen", help="emit a built-in function family")
    p.add_argument("family")
    p.add_argument("m", type=int)
    p.add_argument("--side", choices=["cc", "qc"], default=None)
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    cache = os.environ.get("LPBOUNDS_CACHE")
    if cache:
        lpmod.set_cache_dir(cache)
    parser = build_parser()
    ns = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if ns.command == "gen":
            side = ns.side or ("cc" if ns.family in ("eq", "gt", "disj") else "qc")
            text = run_gen({"family": ns.family, "m": ns.m, "side": side})
            if ns.out:
                with open(ns.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if ns.command == "verify":
            return run_verify(ns.report)
        command = _COMMANDS[ns.command]
        args = {key: getattr(ns, key) for key in command.args}
        inputs = {args[key]: _sha256(_read(args[key])) for key in command.inputs if args[key]}
        records, tree_text = _run(command, args)
        if command.writes_tree and tree_text and ns.tree_out:
            with open(ns.tree_out, "w", encoding="utf-8") as fh:
                fh.write(tree_text)
        return _emit([_run_record(ns.command, args, inputs)] + records, ns.out)
    except (LpboundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed_ms = int((time.monotonic() - started) * 1000)
        print(f"[{ns.command} {elapsed_ms} ms]", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
