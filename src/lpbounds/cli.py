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
import contextlib
import functools
import hashlib
import os
import sys
import time
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
from .ccsynth import balance_depth_target, protocol_pipeline, within_leaf_budget
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
from .records import Record
from .trees import advantage, check_fits, dtree_error, evaluate, leaf_count, protocol_error, tree_depth


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()  # decoded in one call, so the error's offset is the file's
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8: byte {exc.start} is {exc.object[exc.start]:#04x}") from None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load(parse: Callable[[str], object], path: str, kind: type, message: str):
    """The object ``parse`` reads from file ``path``; a ParseError with
    ``message`` unless it is a ``kind``."""
    value = parse(_read(path))
    if not isinstance(value, kind):
        raise ParseError(message)
    return value


def _summary(asserts: dict[str, bool]) -> dict:
    return serialize.record("summary", asserts=asserts, **{"pass": all(asserts.values())})


# ---------------------------------------------------------------------------
# bounds

# each bound kind: the side and class of function it reads, and its partition bound if any
_BOUNDS = {
    "srec": ("cc", TwoPartyFunction, None),
    "prt": ("cc", TwoPartyFunction, prt_bound),
    "rprt": ("cc", TwoPartyFunction, rprt_bound),
    "qprt": ("qc", QueryFunction, qprt_bound),
    "chain": ("cc", TwoPartyFunction, None),
}


def run_bounds(args: dict) -> tuple[list[dict], None]:
    fn = serialize.parse_function(_read(args["function"]))
    fn_hash = serialize.function_hash(fn)
    eps = parse_rational(args["eps"])
    which = args["which"]
    if which != "srec":
        for key in ("delta", "z", "dist"):  # read by srec alone; a run record must not hold them
            if args.get(key) is not None:
                raise ParseError(f"{which} takes no --{key}; only srec reads it")
    # checked after eps is parsed: a replayed record with both faults reports the eps one
    side, kind, partition_bound = _BOUNDS[which]
    if not isinstance(fn, kind):
        raise ParseError(f"{which} needs a {side} function file")
    records: list[dict] = []
    asserts: dict[str, bool] = {}

    if partition_bound is not None:
        res = partition_bound(fn, eps)
        records.append(serialize.bound_record(which, fn_hash, {"eps": args["eps"]}, res))
    elif which == "srec":
        delta = parse_rational(args["delta"]) if args.get("delta") else eps
        mu = None
        if args.get("dist"):
            message = "srec needs a rows/cols product distribution"
            mu = _load(serialize.parse_distribution, args["dist"], ProductDistribution2P, message)
        zs = [int(args["z"])] if args.get("z") is not None else [0, 1]
        name = "srec" if mu is None else "srec-dist"
        for z in zs:
            res = srec_bound(SrecInstance(fn, z, eps, delta, mu))
            params = {
                "eps": args["eps"],
                "delta": format_rational(delta),
                "z": z,
                "distributional": mu is not None,
            }
            records.append(serialize.bound_record(name, fn_hash, params, res))
    else:
        prt_v, rprt_v, srec_v = check_chain(fn, eps).values
        records.append(
            serialize.record(
                "chain",
                fn_hash=fn_hash,
                eps=args["eps"],
                prt=format_rational(prt_v),
                rprt=format_rational(rprt_v),
                srec=format_rational(srec_v),
            )
        )
        asserts["chain prt>=rprt>=srec"] = prt_v >= rprt_v >= srec_v
    records.append(_summary(asserts))
    return records, None


# ---------------------------------------------------------------------------
# synthesis


def run_synth_cc(args: dict) -> tuple[list[dict], str | None]:
    path = args["function"]
    message = f"{path} holds a query function; a cc table is required"
    fn = _load(serialize.parse_function, path, TwoPartyFunction, message)
    message = "synth-cc needs a rows/cols product distribution"
    mu = _load(serialize.parse_distribution, args["dist"], ProductDistribution2P, message)
    part = int(args["part"])
    k = int(args["k"]) if args.get("k") is not None else None
    rep = protocol_pipeline(fn, mu, part, k)
    params = rep.params
    asserts: dict[str, bool] = {}
    base = serialize.record(
        "cc-synthesis",
        fn_hash=serialize.function_hash(fn),
        dist_hash=serialize.distribution_hash(mu),
        part=part,
        k=k,
        eps=format_rational(params.eps),
        delta=format_rational(params.delta),
        s=str(params.s),
        t=str(params.t),
        hypothesis_ok=rep.hypothesis_ok,
        notes=list(rep.notes),
    )
    records = [base]
    tree_text: str | None = None
    if rep.tree is not None and rep.balanced is not None:
        # assertions are recomputed from the serialized artifact, not from
        # the in-memory synthesis state
        parsed = serialize.parse_protocol_tree(serialize.write_protocol_tree(rep.tree))
        tree_text = serialize.write_protocol_tree(rep.balanced)
        parsed_balanced = serialize.parse_protocol_tree(tree_text)
        leaves = leaf_count(parsed)
        adv = advantage(parsed, fn, mu)
        balanced_depth = tree_depth(parsed_balanced)
        base.update(
            leaves=leaves,
            depth=tree_depth(parsed),
            balanced_depth=balanced_depth,
            advantage=format_rational(adv),
            # part 2's floor has denominator 2^(5k^2), too long to print, and a
            # negative coefficient (30 (k+1) delta^(1/4) is about 4); the exact
            # comparison stays in the summary
            advantage_floor=format_rational(rep.adv_floor) if part == 1 else None,
            twentieth_applicable=rep.twentieth_applicable,
        )
        asserts["advantage >= floor"] = adv >= rep.adv_floor
        asserts["leaves within binomial budget"] = within_leaf_budget(leaves, params.s, params.t)
        asserts["balanced depth within target"] = balanced_depth <= balance_depth_target(leaves)
        asserts["balanced tree agrees pointwise"] = all(
            evaluate(parsed, x, y) == evaluate(parsed_balanced, x, y)
            for x in range(fn.nx)
            for y in range(fn.ny)
        )
        if part == 2 and k is not None:
            asserts["leaves <= 2^(4k^2)"] = leaves <= (1 << (4 * k * k))
        records.append(serialize.protocol_summary_record(parsed_balanced, adv))
    records.append(_summary(asserts))
    return records, tree_text


def run_synth_qc(args: dict) -> tuple[list[dict], str | None]:
    path = args["function"]
    message = f"{path} holds a cc table; a query function is required"
    fn = _load(serialize.parse_function, path, QueryFunction, message)
    message = "synth-qc needs a bit-wise `p:` distribution"
    mu = _load(serialize.parse_distribution, args["dist"], BitProductDistribution, message)
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
        serialize.record(
            "qc-synthesis",
            fn_hash=serialize.function_hash(fn),
            dist_hash=serialize.distribution_hash(mu),
            qprt=format_rational(rep.qprt_value),
            c=rep.c,
            gamma=format_rational(rep.gamma),
            votes=rep.votes,
            boosted_error=format_rational(rep.boosted_error),
            delta=format_rational(rep.delta),
            depth=depth,
            depth_bound=rep.depth_bound,
            error=format_rational(error),
            error_budget=format_rational(rep.error_budget),
            half_error_certified=rep.half_error_certified,
        ),
        serialize.feasible_system_record(rep.system),
        serialize.decision_summary_record(parsed, error, {"a": rep.system.a, "b": rep.system.b}),
        _summary(asserts),
    ]
    return records, tree_text


# ---------------------------------------------------------------------------
# oracle


def run_oracle(args: dict) -> tuple[list[dict], None]:
    fn = serialize.parse_function(_read(args["function"]))
    depth = int(args["depth"])
    if isinstance(fn, TwoPartyFunction):
        message = "two-party oracle needs a rows/cols distribution"
        mu = _load(serialize.parse_distribution, args["dist"], ProductDistribution2P, message)
        res = oracle_cc(fn, mu, depth)
        side, error, parse = "cc", protocol_error, serialize.parse_protocol_tree
    else:
        message = "query oracle needs a `p:` distribution"
        mu = _load(serialize.parse_distribution, args["dist"], BitProductDistribution, message)
        res = oracle_qc(fn, mu, depth)
        side, error, parse = "qc", dtree_error, serialize.parse_decision_tree
    asserts = {"witness replays exactly": error(res.witness, fn, mu) == res.best_error}
    records = [
        serialize.record(
            "oracle",
            side=side,
            fn_hash=serialize.function_hash(fn),
            dist_hash=serialize.distribution_hash(mu),
            depth=depth,
            best_error=format_rational(res.best_error),
        )
    ]
    if args.get("artifact"):
        tree = parse(_read(args["artifact"]))
        check_fits(tree, fn)
        measured, artifact_depth = error(tree, fn, mu), tree_depth(tree)
        records.append(
            serialize.record(
                "sandwich",
                artifact_depth=artifact_depth,
                artifact_error=format_rational(measured),
                oracle_error=format_rational(res.best_error),
            )
        )
        # the oracle's optimum bounds only the trees it searched, those of depth <= depth
        if artifact_depth <= depth:
            asserts["oracle <= artifact error"] = res.best_error <= measured
    records.append(_summary(asserts))
    return records, None


# ---------------------------------------------------------------------------
# the replayable commands and verify


def _rational_arg(text: str) -> str:
    try:
        parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


class _Command(Record):
    """A replayable command: its runner, its flags, and what its run record holds."""

    run: Callable[[dict], tuple[list[dict], str | None]]  # records and tree text, if any
    help: str
    flags: dict[str, dict]  # argparse name -> add_argument options; each is a run-record arg
    inputs: tuple[str, ...]  # the args naming input files, whose hashes it records
    writes_tree: bool

    def arg_types(self) -> dict[str, tuple[type, ...]]:
        """Each run-record arg and the types main writes for it: an int for
        ``type=int``, else a string, or null for an optional flag left unset."""
        return {
            name.lstrip("-"): (int if options.get("type") is int else str,)
            + ((type(None),) if name.startswith("--") and not options.get("required") else ())
            for name, options in self.flags.items()
        }


_COMMANDS = {
    "bounds": _Command(
        run_bounds,
        "solve bound LPs",
        {
            "function": {},
            "--which": {"required": True, "choices": list(_BOUNDS)},
            "--eps": {"required": True, "type": _rational_arg},
            "--delta": {"type": _rational_arg},
            "--z": {"choices": ["0", "1"]},
            "--dist": {},
        },
        ("function", "dist"),
        writes_tree=False,
    ),
    "synth-cc": _Command(
        run_synth_cc,
        "synthesize and balance a protocol tree",
        {
            "function": {},
            "dist": {},
            "--part": {"required": True, "choices": ["1", "2"]},
            "--k": {"type": int},
        },
        ("function", "dist"),
        writes_tree=True,
    ),
    "synth-qc": _Command(
        run_synth_qc,
        "synthesize a decision tree",
        {
            "function": {},
            "dist": {},
            "--eps": {"type": _rational_arg},
            "--delta": {"type": _rational_arg},
        },
        ("function", "dist"),
        writes_tree=True,
    ),
    "oracle": _Command(
        run_oracle,
        "optimal bounded-depth tree by brute force",
        {"function": {}, "dist": {}, "--depth": {"required": True, "type": int}, "--artifact": {}},
        ("function", "dist", "artifact"),
        writes_tree=False,
    ),
}


def _check_run_record(run: dict) -> None:
    command, args = run.get("command"), run.get("args")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ParseError(f"cannot replay command {command!r}")
    needed = _COMMANDS[command].arg_types()
    if not isinstance(args, dict) or not all(key in args for key in needed):
        raise ParseError(f"{command} run record needs args {', '.join(needed)}")
    for key, types in needed.items():
        if type(args[key]) not in types:
            got, expected = type(args[key]).__name__, " or ".join(t.__name__ for t in types)
            raise ParseError(f"{command} run record arg {key} is {got}, not {expected}")
    for flag, options in _COMMANDS[command].flags.items():
        key, choices = flag.lstrip("-"), options.get("choices")
        if choices and args[key] is not None and args[key] not in choices:
            allowed = ", ".join(choices)
            raise ParseError(f"{command} run record arg {key} is {args[key]!r}, not one of {allowed}")
    if not isinstance(run.get("inputs", {}), dict):
        raise ParseError("run record inputs must map paths to hashes")


def run_verify(path: str) -> int:
    records = serialize.load_records(_read(path))
    run = records[0] if records else None
    if not isinstance(run, dict) or run.get("record") != "run":
        print(f"FAIL {path}: missing run record\nverify: FAIL")
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
        recomputed = [run] + _COMMANDS[run["command"]].run(run["args"])[0]
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


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to file ``path``, or to stdout when no path is given.

    An existing file is rewritten in place (same inode, permissions and
    symlink target) and its tail cut only when it was longer: a truncation
    to zero on open makes the filesystem free and reallocate the blocks,
    about 200 us a rewrite.  Devices and FIFOs report size 0, so they are
    never truncated."""
    if not path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpbounds",
        description="Exact LP bounds and certified tree synthesis for small Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.flags.items():
            p.add_argument(flag, **options)
        p.add_argument("--out")
        if command.writes_tree:
            p.add_argument("--tree-out")

    p = sub.add_parser("verify", help="replay a report and re-check every assertion")
    p.add_argument("report")

    p = sub.add_parser("gen", help="emit a built-in function family")
    p.add_argument("family")
    p.add_argument("m", type=int)
    p.add_argument("--side", choices=["cc", "qc"], default=None)
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    # set on every call, so an in-process caller never keeps a previous call's directory
    lpmod.set_cache_dir(os.environ.get("LPBOUNDS_CACHE") or None)
    parser = build_parser()
    ns = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if ns.command == "gen":
            # a family in both tables (and, or, xor) is the query one unless --side cc
            cc_only = families.TWO_PARTY_FAMILIES.keys() - families.QUERY_FAMILIES.keys()
            side = ns.side or ("cc" if ns.family in cc_only else "qc")
            fn = families.make_function(ns.family, ns.m, side)
            _write(ns.out, serialize.write_function(fn))
            return 0
        if ns.command == "verify":
            return run_verify(ns.report)
        command = _COMMANDS[ns.command]
        args = {key: getattr(ns, key) for key in command.arg_types()}
        inputs = {args[key]: _sha256(_read(args[key])) for key in command.inputs if args[key]}
        records, tree_text = command.run(args)
        if tree_text and ns.tree_out:
            _write(ns.tree_out, tree_text)
        elif command.writes_tree and ns.tree_out:
            # an older file would pass for this run's tree
            with contextlib.suppress(FileNotFoundError):
                os.remove(ns.tree_out)
            print(f"no tree written to {ns.tree_out}: none was synthesized", file=sys.stderr)
        run = serialize.record("run", command=ns.command, args=args, inputs=inputs)
        _write(ns.out, serialize.dump_records([run] + records))
        return 0 if records[-1]["pass"] else 1  # the summary record closes every report
    except (LpboundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed_ms = int((time.monotonic() - started) * 1000)
        print(f"[{ns.command} {elapsed_ms} ms]", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
