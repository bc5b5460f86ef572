"""The benchmark's workloads: fixed job lists, expected values and extras.

Every workload is a closed loop with one caller: the jobs of its fixed
list run back to back, each after the previous one returned.  A job is a
(name, run, check) triple: ``run`` calls into the public ``lpbounds`` API
or ``cli.main``, and ``check(result)`` lists how the result differs from
the exact expected values, outside the timed region.  The seed only
draws extra inputs of the same shape as the fixed list, which run and are
checked after the timed phase.

Jobs reach the library through ``lib.<module>.<function>`` at call time,
so wrappers installed on those module attributes see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

EPS = Fraction(1, 8)

# (prt, rprt, srec^0, srec^1) of check_chain(f, 1/8)
CHAIN_EXPECTED = {
    "eq2": ("eq", ("41/8", "41/8", "19/8", "11/4")),
    "gt2": ("gt", ("5", "5", "11/4", "9/4")),
    "and2": ("and", ("5/2", "5/2", "13/8", "7/8")),
    "xor2": ("xor", ("13/4", "13/4", "13/8", "13/8")),
    "disj2": ("disj", ("19/4", "19/4", "31/16", "11/4")),
}

# qprt_bound(g, 1/8), in run order: maj5 separates and4 and xor4, the two
# jobs whose times give job_p50_s, so they sample the host at different times
QPRT_EXPECTED = {
    "and4": ("and", 4, "227/8"),
    "maj5": ("maj", 5, "292"),
    "xor4": ("xor", 4, "769/4"),
    "maj4": ("maj", 4, "76"),
}

# part-1 protocol synthesis is vacuous (one leaf) on all five tables
CC_SYNTH = {"eq2": "eq", "gt2": "gt", "disj2": "disj", "and2": "and", "xor2": "xor"}
# depth of the synthesized decision tree
QC_SYNTH = {"maj3": ("maj", 3, 3), "xor3": ("xor", 3, 3), "maj4": ("maj", 4, 4), "xor4": ("xor", 4, 4)}
# synthesize + balance on xor2 at q = 2^-17: (leaves, depth, balanced depth)
DEMO_EXPECTED = (5, 3, 4)

UNIFORM_4X4 = "rows: 1/4 1/4 1/4 1/4\ncols: 1/4 1/4 1/4 1/4\n"


def _random_table(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A 4x4 Boolean table that takes both values."""
    while True:
        table = tuple(tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4))
        if 0 < sum(map(sum, table)) < 16:
            return table


def _random_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    """A truth table on n bits that takes both values."""
    while True:
        table = tuple(rng.randint(0, 1) for _ in range(1 << n))
        if 0 < sum(table) < len(table):
            return table


def _chain_problems(lib, rep, expected=None) -> list[str]:
    got = tuple(lib.rational.format_rational(r.value) for r in (rep.prt, rep.rprt, rep.srec0, rep.srec1))
    problems = []
    if expected is not None and got != expected:
        problems.append(f"chain values {got}, expected {expected}")
    if not rep.prt.value >= rep.rprt.value >= max(rep.srec0.value, rep.srec1.value):
        problems.append(f"chain inequality fails on {got}")
    return problems


class Chain:
    name = "chain"
    why = "20 mid-size cold LP solves (m = 32, 225-450 columns): cost per pivot of the exact simplex"

    def setup(self, lib, workdir) -> None:
        self.lib = lib
        self.functions = {
            name: lib.families.make_function(family, 2, "cc")
            for name, (family, _) in CHAIN_EXPECTED.items()
        }

    def jobs(self):
        return [self._job(name, f, CHAIN_EXPECTED[name][1]) for name, f in self.functions.items()]

    def _job(self, name: str, f, expected=None):
        return (name, lambda: self.lib.ccbounds.check_chain(f, EPS),
                lambda rep: _chain_problems(self.lib, rep, expected))

    def extras(self, seed: int):
        f = self.lib.model.TwoPartyFunction(_random_table(random.Random(seed)))
        return [self._job(f"random4x4-seed{seed}", f)]


class Qprt:
    name = "qprt"
    why = "cold qprt solves up to m = 64 rows, where maj5 spends 1321 of 1782 pivots in phase 1"

    def setup(self, lib, workdir) -> None:
        self.lib = lib
        self.functions = {
            name: lib.families.make_function(family, n, "qc")
            for name, (family, n, _) in QPRT_EXPECTED.items()
        }

    def jobs(self):
        return [self._job(name, g, QPRT_EXPECTED[name][2]) for name, g in self.functions.items()]

    def _job(self, name: str, g, expected=None):
        """qprt_bound(g, 1/8); its value must equal ``expected`` or, without one, be at least 1."""

        def check(result):
            got = self.lib.rational.format_rational(result.value)
            if expected is None:
                return [] if result.value >= 1 else [f"qprt {got} below 1"]
            return [] if got == expected else [f"qprt {got}, expected {expected}"]

        return name, lambda: self.lib.qcbounds.qprt_bound(g, EPS), check

    def extras(self, seed: int):
        g = self.lib.model.QueryFunction(4, _random_bits(random.Random(seed), 4))
        return [self._job(f"random4bit-seed{seed}", g)]


class Certify:
    """The README's CLI flow over a pre-filled solution cache.

    A job is one function's flow: synthesize, run the oracle, and verify
    both reports, four ``cli.main`` commands back to back.
    """

    name = "certify"
    why = "CLI synth/oracle/verify flow on a filled cache: cache loads, boosting, oracles, synthesis, serialize, cli"

    def setup(self, lib, workdir) -> None:
        self.lib = lib
        self.dir = workdir
        workdir.mkdir(parents=True)
        self.cache = workdir / "cache"
        (workdir / "u.dist").write_text(UNIFORM_4X4)
        for name, family in CC_SYNTH.items():
            self._write_function(f"{name}.cc", lib.families.make_function(family, 2, "cc"))
        for name, (family, n, _) in QC_SYNTH.items():
            self._write_function(f"{name}.qc", lib.families.make_function(family, n, "qc"))
            (workdir / f"bits{n}.dist").write_text("p:" + " 1/2" * n + "\n")
        self.xor2 = lib.families.make_function("xor", 2, "cc")
        # cli.main reads the cache directory from the environment on every call
        os.environ["LPBOUNDS_CACHE"] = str(self.cache)
        lib.lp.set_cache_dir(str(self.cache))
        # fill the cache: one cold run of every command that solves an LP
        for name, steps in self._flows():
            argv, check = steps[0]
            problems = check(self.cli(argv))
            if problems:
                raise RuntimeError(f"cache fill, {name}: {problems[0]}")
        problems = self._demo_check(self.demo())
        if problems:
            raise RuntimeError(f"cache fill, synthesize+balance xor2: {problems[0]}")

    def _write_function(self, filename: str, fn) -> None:
        (self.dir / filename).write_text(self.lib.serialize.write_function(fn))

    def cli(self, argv: list[str]):
        """Run ``cli.main`` in-process; returns (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.lib.cli.main(argv)
        return code, out.getvalue()

    def _cc_steps(self, name: str):
        d = self.dir
        fn, synth, orc = f"{d}/{name}.cc", f"{d}/synth-{name}.jsonl", f"{d}/oracle-{name}.jsonl"
        return [
            (["synth-cc", fn, f"{d}/u.dist", "--part", "1", "--out", synth, "--tree-out", f"{d}/{name}.ptree"],
             self._cc_synth_check(synth)),
            (["oracle", fn, f"{d}/u.dist", "--depth", "4", "--out", orc], self._exit_check),
            (["verify", synth], self._verify_check),
            (["verify", orc], self._verify_check),
        ]

    def _qc_steps(self, name: str, n: int, depth: int | None):
        d = self.dir
        fn, tree = f"{d}/{name}.qc", f"{d}/{name}.dtree"
        synth, orc, dist = f"{d}/synth-{name}.jsonl", f"{d}/oracle-{name}.jsonl", f"{d}/bits{n}.dist"
        return [
            (["synth-qc", fn, dist, "--out", synth, "--tree-out", tree], self._qc_synth_check(synth, depth)),
            (["oracle", fn, dist, "--depth", str(n), "--artifact", tree, "--out", orc], self._exit_check),
            (["verify", synth], self._verify_check),
            (["verify", orc], self._verify_check),
        ]

    def _flows(self):
        flows = [(f"cc flow {name}", self._cc_steps(name)) for name in CC_SYNTH]
        flows += [(f"qc flow {name}", self._qc_steps(name, n, depth)) for name, (_, n, depth) in QC_SYNTH.items()]
        return flows

    def _flow_job(self, name: str, steps):
        """One job: the CLI commands of ``steps`` back to back, checked command by command."""

        def run():
            return [self.cli(argv) for argv, _ in steps]

        def check(results):
            return [f"{argv[0]}: {p}" for (argv, step_check), res in zip(steps, results) for p in step_check(res)]

        return name, run, check

    def jobs(self):
        jobs = [self._flow_job(name, steps) for name, steps in self._flows()]
        return jobs + [("synthesize+balance xor2", self.demo, self._demo_check)]

    def demo(self):
        """demos/protocol_synthesis.py: xor2 under the uniform measure, q = 2^-17."""
        lib = self.lib
        cc, syn = lib.ccbounds, lib.ccsynth
        mu = lib.model.ProductDistribution2P.uniform(4, 4)
        q = Fraction(1, 1 << 17)
        delta = q**4
        r0 = cc.srec_bound(cc.SrecInstance(self.xor2, 0, Fraction(0), delta, mu))
        r1 = cc.srec_bound(cc.SrecInstance(self.xor2, 1, Fraction(0), delta, mu))
        s = syn.minimum_s(r0.value, r1.value)
        big_delta = Fraction(1, 1 << 20)
        t = syn.minimum_t(s, mu.total, big_delta)
        params = syn.SynthParams(Fraction(0), delta, q, big_delta, s, t)
        tree = syn.synthesize(self.xor2, mu, params, cc.srec_weights(r0), cc.srec_weights(r1))
        return tree, syn.balance(tree, 4, 4)

    def _demo_check(self, result) -> list[str]:
        syn = self.lib.ccsynth
        tree, balanced = result
        got = (syn.leaf_count(tree), syn.tree_depth(tree), syn.tree_depth(balanced))
        problems = [] if got == DEMO_EXPECTED else [f"(leaves, depth, balanced) {got}, expected {DEMO_EXPECTED}"]
        if any(syn.evaluate(tree, x, y) != syn.evaluate(balanced, x, y) for x in range(4) for y in range(4)):
            problems.append("balanced tree disagrees with the synthesized tree")
        return problems

    @staticmethod
    def _exit_check(result) -> list[str]:
        code, _ = result
        return [] if code == 0 else [f"exit code {code}"]

    @staticmethod
    def _verify_check(result) -> list[str]:
        code, out = result
        lines = out.splitlines()
        if code != 0 or not lines or lines[-1] != "verify: PASS" or any(s.startswith("FAIL") for s in lines):
            return [f"verify exit {code}: {lines[-1] if lines else 'no output'}"]
        return []

    def _report(self, path: str, kind: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        return next(r for r in records if r.get("record") == kind)

    def _cc_synth_check(self, path: str):
        def check(result):
            problems = self._exit_check(result)
            if problems:
                return problems
            leaves = self._report(path, "cc-synthesis").get("leaves")
            if leaves != 1:
                problems.append(f"{leaves} leaves, expected a vacuous one-leaf tree")
            return problems

        return check

    def _qc_synth_check(self, path: str, depth: int | None):
        """Exit code 0 and, when ``depth`` is given, that tree depth."""

        def check(result):
            problems = self._exit_check(result)
            if problems or depth is None:
                return problems
            got = self._report(path, "qc-synthesis")["depth"]
            if got != depth:
                problems.append(f"tree depth {got}, expected {depth}")
            return problems

        return check

    def extras(self, seed: int):
        """A random 4x4 table through the cc flow and a random 3-bit function through the qc flow.

        Part-1 synthesis is vacuous on every 4x4 table; the depth of the
        random decision tree is not known in advance, so only its exit
        code and ``verify`` gate it.
        """
        rng = random.Random(seed)
        cc, qc = f"random-cc-seed{seed}", f"random-qc-seed{seed}"
        self._write_function(f"{cc}.cc", self.lib.model.TwoPartyFunction(_random_table(rng)))
        self._write_function(f"{qc}.qc", self.lib.model.QueryFunction(3, _random_bits(rng, 3)))
        return [self._flow_job(f"cc flow {cc}", self._cc_steps(cc)),
                self._flow_job(f"qc flow {qc}", self._qc_steps(qc, 3, None))]


WORKLOADS = {w.name: w for w in (Chain, Qprt, Certify)}
