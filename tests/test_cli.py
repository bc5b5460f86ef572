import builtins
import errno
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from lpbounds import ccsynth, cli, families, serialize
from lpbounds.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    files = {}
    assert main(["gen", "and", "2", "--side", "cc", "--out", str(tmp_path / "and2.cc")]) == 0
    assert main(["gen", "xor", "2", "--side", "qc", "--out", str(tmp_path / "xor2.qc")]) == 0
    files["and2"] = str(tmp_path / "and2.cc")
    files["xor2"] = str(tmp_path / "xor2.qc")
    files["dist"] = write(
        tmp_path / "u.dist", "rows: 1/4 1/4 1/4 1/4\ncols: 1/4 1/4 1/4 1/4\n"
    )
    files["bits"] = write(tmp_path / "u.bits", "p: 1/2 1/2\n")
    files["dir"] = tmp_path
    return files


def records_of(path):
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.load_records(fh.read())


def test_gen_known_table(workspace):
    with open(workspace["and2"]) as fh:
        text = fh.read()
    # two-party AND of all bits: a single 1 at (3,3)
    assert text == "cc 4 4\n0000\n0000\n0000\n0001\n"


def test_bounds_chain_and_verify(workspace, capsys):
    out = str(workspace["dir"] / "chain.jsonl")
    code = main(
        ["bounds", workspace["and2"], "--which", "chain", "--eps", "1/3", "--out", out]
    )
    assert code == 0
    recs = records_of(out)
    kinds = [r["record"] for r in recs]
    assert kinds == ["run", "chain", "summary"]
    assert recs[2]["pass"] is True
    assert main(["verify", out]) == 0
    captured = capsys.readouterr()
    assert "verify: PASS" in captured.out


def test_bounds_decimal_eps_is_a_parse_error(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", workspace["and2"], "--which", "prt", "--eps", "0.125"])
    assert exc.value.code == 2
    assert "num/den" in capsys.readouterr().err


@pytest.mark.parametrize(("fn", "which"), [("and2", "prt"), ("and2", "rprt"), ("xor2", "qprt")])
def test_bounds_eps_outside_unit_interval_exits_1(workspace, capsys, fn, which):
    assert main(["bounds", workspace[fn], "--which", which, "--eps", "3/2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: eps must lie in [0,1]")
    assert len(err) == 2 and err[1].startswith("[bounds ")


def test_bounds_qprt(workspace):
    out = str(workspace["dir"] / "qprt.jsonl")
    assert main(["bounds", workspace["xor2"], "--which", "qprt", "--eps", "1/8", "--out", out]) == 0
    recs = records_of(out)
    assert recs[1]["kind"] == "qprt" and recs[1]["value"] == "49/4"


def test_bounds_srec_distributional(workspace):
    out = str(workspace["dir"] / "srec.jsonl")
    code = main(
        [
            "bounds",
            workspace["and2"],
            "--which",
            "srec",
            "--eps",
            "1/8",
            "--dist",
            workspace["dist"],
            "--z",
            "1",
            "--out",
            out,
        ]
    )
    assert code == 0
    recs = records_of(out)
    assert recs[1]["kind"] == "srec-dist" and recs[1]["params"]["z"] == 1


def test_synth_cc_part1_and_verify(workspace):
    out = str(workspace["dir"] / "scc.jsonl")
    tree_out = str(workspace["dir"] / "scc.ptree")
    code = main(
        [
            "synth-cc", workspace["and2"], workspace["dist"],
            "--part", "1", "--out", out, "--tree-out", tree_out,
        ]
    )
    assert code == 0
    recs = records_of(out)
    assert recs[1]["record"] == "cc-synthesis" and recs[1]["hypothesis_ok"]
    serialize.parse_protocol_tree(open(tree_out).read())
    assert main(["verify", out]) == 0


@pytest.mark.parametrize(
    ("table", "weights"), [("cc 1 1\n1\n", "1"), ("cc 2 2\n10\n01\n", "1/2 1/2")], ids=["1x1", "2x2"]
)
def test_synth_cc_part1_below_4x4_exits_1(workspace, capsys, table, weights):
    fn = write(workspace["dir"] / "small.cc", table)
    dist = write(workspace["dir"] / "small.dist", f"rows: {weights}\ncols: {weights}\n")
    assert main(["synth-cc", fn, dist, "--part", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == "error: part 1 needs at least 4 x 4 inputs"


def test_synth_cc_part2_requires_k20(workspace, capsys):
    code = main(
        ["synth-cc", workspace["and2"], workspace["dist"], "--part", "2", "--k", "19"]
    )
    assert code == 1
    assert "k >= 20" in capsys.readouterr().err


def test_synth_cc_part2_writes_a_report_when_its_hypothesis_holds(workspace):
    """k = 100 is the least k whose hypothesis holds for a constant table."""
    fn = write(workspace["dir"] / "zero.cc", "cc 4 4\n0000\n0000\n0000\n0000\n")
    out = str(workspace["dir"] / "p2.jsonl")
    assert main(["synth-cc", fn, workspace["dist"], "--part", "2", "--k", "100", "--out", out]) == 0
    recs = records_of(out)
    assert recs[1]["hypothesis_ok"] is True and recs[1]["leaves"] == 1
    assert recs[1]["advantage"] == "1" and recs[1]["advantage_floor"] is None
    asserts = recs[-1]["asserts"]
    assert asserts["advantage >= floor"] is True and asserts["leaves <= 2^(4k^2)"] is True
    assert main(["verify", out]) == 0


def test_synth_cc_part2_k_above_the_cap_exits_1(workspace, capsys):
    k = ccsynth.MAX_PART2_K + 1
    argv = ["synth-cc", workspace["and2"], workspace["dist"], "--part", "2", "--k", str(k)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: part 2 takes k <= {k - 1}, got {k}"


def test_synth_cc_without_a_tree_removes_an_older_tree_file(workspace, capsys):
    argv = ["synth-cc", workspace["and2"], workspace["dist"], "--part", "2", "--k", "20"]
    plain, stale = (str(workspace["dir"] / name) for name in ("plain.jsonl", "stale.jsonl"))
    assert main(argv + ["--out", plain]) == 0
    assert records_of(plain)[1]["hypothesis_ok"] is False
    tree_out = write(workspace["dir"] / "old.ptree", "ptree v1\nL 1\n")
    capsys.readouterr()
    for _ in range(2):  # with an older file, then with none
        assert main(argv + ["--out", stale, "--tree-out", tree_out]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"no tree written to {tree_out}: none was synthesized"
        assert not (workspace["dir"] / "old.ptree").exists()
        assert open(stale).read() == open(plain).read()


def test_synth_qc_and_oracle_sandwich(workspace):
    out = str(workspace["dir"] / "sqc.jsonl")
    tree_out = str(workspace["dir"] / "xor2.dtree")
    code = main(
        ["synth-qc", workspace["xor2"], workspace["bits"], "--out", out, "--tree-out", tree_out]
    )
    assert code == 0
    oracle_out = str(workspace["dir"] / "oracle.jsonl")
    code = main(
        [
            "oracle", workspace["xor2"], workspace["bits"],
            "--depth", "2", "--artifact", tree_out, "--out", oracle_out,
        ]
    )
    assert code == 0
    recs = records_of(oracle_out)
    sandwich = [r for r in recs if r["record"] == "sandwich"]
    assert sandwich and sandwich[0]["oracle_error"] == "0"
    assert main(["verify", oracle_out]) == 0


# sha256 of the report and the tree ``synth-qc`` writes for maj5 and xor5 under
# the skewed measure p_i = (i+1)/8, run with paths relative to their directory
SYNTH_QC_SKEWED = {
    "maj5": ("9429d469810e96e835a67c3bedf3c8440b732b252e2cb665c34d33d15a78566a",
             "1f668bd4559a32174d6e87de0395c7bf2cb5b732e14e6e76580b3503665f8c7b"),
    "xor5": ("83f3cfe5a85c1442ae29b4df0c221487688608f5493a085f3d0247724c3b8388",
             "5a0ee5853396ba9e74c701361859ab3d858da65a1ea6cff876ebb28226a5599a"),
}


@pytest.mark.parametrize("name", SYNTH_QC_SKEWED)
def test_synth_qc_report_bytes_are_pinned_on_five_bits(tmp_path, monkeypatch, name):
    """Beyond the bench corpus: five bits, a skewed measure, and ``verify``'s replay."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", name[:3], "5", "--side", "qc", "--out", f"{name}.qc"]) == 0
    Path("skew5.dist").write_text("p: 1/8 2/8 3/8 4/8 5/8\n")
    report, tree = f"synth-{name}.jsonl", f"{name}.dtree"
    assert main(["synth-qc", f"{name}.qc", "skew5.dist", "--out", report, "--tree-out", tree]) == 0
    assert tuple(hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in (report, tree)) == (
        SYNTH_QC_SKEWED[name]
    )
    assert main(["verify", report]) == 0


def test_oracle_sandwich_skips_an_artifact_deeper_than_the_search(workspace):
    """A depth-2 tree with error 0 beats the best depth-1 tree; that is no
    failure, since the sandwich bounds only artifacts within --depth."""
    tree_out = str(workspace["dir"] / "xor2.dtree")
    assert main(["synth-qc", workspace["xor2"], workspace["bits"],
                 "--out", str(workspace["dir"] / "sqc.jsonl"), "--tree-out", tree_out]) == 0
    oracle_out = str(workspace["dir"] / "oracle.jsonl")
    argv = ["oracle", workspace["xor2"], workspace["bits"], "--artifact", tree_out, "--out", oracle_out]
    assert main(argv + ["--depth", "1"]) == 0
    recs = records_of(oracle_out)
    (sandwich,) = [r for r in recs if r["record"] == "sandwich"]
    assert (sandwich["artifact_depth"], sandwich["artifact_error"], sandwich["oracle_error"]) == (2, "0", "1/2")
    assert recs[-1]["asserts"] == {"witness replays exactly": True} and recs[-1]["pass"] is True
    assert main(["verify", oracle_out]) == 0
    assert main(argv + ["--depth", "2"]) == 0
    assert records_of(oracle_out)[-1]["asserts"]["oracle <= artifact error"] is True


def test_report_determinism(workspace):
    out1 = str(workspace["dir"] / "d1.jsonl")
    out2 = str(workspace["dir"] / "d2.jsonl")
    args = ["bounds", workspace["xor2"], "--which", "qprt", "--eps", "1/8"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_verify_detects_tampering(workspace, capsys):
    out = str(workspace["dir"] / "t.jsonl")
    assert main(["bounds", workspace["xor2"], "--which", "qprt", "--eps", "1/8", "--out", out]) == 0
    recs = records_of(out)
    recs[1]["value"] = "1/1"
    with open(out, "w") as fh:
        fh.write(serialize.dump_records(recs))
    assert main(["verify", out]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cache_round_trip(workspace, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("LPBOUNDS_CACHE", str(cache))
    out1 = str(workspace["dir"] / "c1.jsonl")
    out2 = str(workspace["dir"] / "c2.jsonl")
    args = ["bounds", workspace["xor2"], "--which", "qprt", "--eps", "1/8"]
    assert main(args + ["--out", out1]) == 0
    assert any(cache.iterdir())
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    monkeypatch.delenv("LPBOUNDS_CACHE")
    from lpbounds import lp as lpmod

    lpmod.set_cache_dir(None)


def test_a_call_without_the_cache_variable_caches_nothing(workspace, tmp_path, monkeypatch):
    """``main`` sets the cache directory on every call, so an unset ``LPBOUNDS_CACHE`` turns it off."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("LPBOUNDS_CACHE", str(cache))
    args = ["bounds", workspace["and2"], "--which", "rprt", "--out", str(workspace["dir"] / "b.jsonl")]
    assert main(args + ["--eps", "1/8"]) == 0
    first = sorted(cache.iterdir())
    assert len(first) == 1
    monkeypatch.delenv("LPBOUNDS_CACHE")
    assert main(args + ["--eps", "1/4"]) == 0  # another program: a cache left set would store it
    assert sorted(cache.iterdir()) == first


@pytest.mark.parametrize(
    "run",
    [
        {"v": 1, "record": "run", "command": "bounds"},
        {"v": 1, "record": "run", "args": {}},
        {"v": 1, "record": "run", "command": "bounds", "args": {"function": "@and2"}},
        {"v": 1, "record": "run", "command": ["bounds"], "args": {}},
        {
            "v": 1, "record": "run", "command": "oracle", "inputs": [],
            "args": {"function": "@and2", "dist": "@and2", "depth": 1, "artifact": None},
        },
    ],
    ids=["no-args", "no-command", "missing-arg", "list-command", "list-inputs"],
)
def test_verify_malformed_run_record_exits_1(workspace, capsys, run):
    text = json.dumps(run).replace("@and2", workspace["and2"])
    path = write(workspace["dir"] / "bad.jsonl", text + "\n")
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("error: ")
    assert err[1].startswith("[verify ")


@pytest.mark.parametrize("before", ["", "\n", '{"record": "run"}\n'], ids=["first", "after-blank", "second"])
def test_verify_deeply_nested_record_exits_1(workspace, capsys, before):
    path = write(workspace["dir"] / "deep.jsonl", before + "[" * 100000 + "]" * 100000 + "\n")
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err.splitlines()
    line = before.count("\n") + 1
    assert len(err) == 2 and err[0] == f"error: record line {line} is nested too deeply"
    assert err[1].startswith("[verify ")


@pytest.mark.parametrize(
    ("fn", "dist", "tree"),
    [
        ("and2", "dist", "ptree v1\n" + "I A 1\n" * 3000),
        ("xor2", "bits", "dtree v1\n" + "Q 0\n" * 3000),
    ],
    ids=["ptree", "dtree"],
)
def test_oracle_deep_artifact_exits_1(workspace, capsys, fn, dist, tree):
    artifact = write(workspace["dir"] / "deep.tree", tree + "L 0\n" * 3001)
    code = main(["oracle", workspace[fn], workspace[dist], "--depth", "1", "--artifact", artifact])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("error: ") and "deeper than" in err[0]


@pytest.mark.parametrize(
    ("fn", "dist", "tree", "message"),
    [
        ("xor2", "bits", "dtree v1\nQ 2\nL 0\nL 1\n", "decision tree queries bit 2 of a 2-bit function"),
        ("xor2", "bits", "dtree v1\nQ 0\nL 0\nQ 99\nL 1\nL 0\n", "decision tree queries bit 99 of a 2-bit function"),
        ("and2", "dist", "ptree v1\nI A 10\nL 0\nL 1\n", "protocol tree splits A on 10, beyond its 4 inputs"),
        ("and2", "dist", "ptree v1\nI A 1\nI B 1f\nL 0\nL 1\nL 0\n", "protocol tree splits B on 1f, beyond its 4 inputs"),
    ],
    ids=["dtree-Q-2", "dtree-Q-99", "ptree-A-10", "ptree-B-1f"],
)
def test_oracle_artifact_beyond_the_function_exits_1(workspace, capsys, fn, dist, tree, message):
    artifact = write(workspace["dir"] / "wide.tree", tree)
    code = main(["oracle", workspace[fn], workspace[dist], "--depth", "1", "--artifact", artifact])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {message}"


@pytest.mark.parametrize(("fn", "dist"), [("and2", "dist"), ("xor2", "bits")])
def test_oracle_negative_depth_exits_1(workspace, capsys, fn, dist):
    assert main(["oracle", workspace[fn], workspace[dist], "--depth", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == "error: oracle depth must be >= 0, got -1"


def test_gen_checks_size_before_building_the_table(capsys):
    tracemalloc.start()
    try:
        code = main(["gen", "maj", "30", "--side", "qc"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 1 << 20
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: qc family size must be in [1, 12], got 30"


@pytest.mark.parametrize("m", ["-1", "5"])
def test_gen_cc_size_out_of_range_exits_1(capsys, m):
    assert main(["gen", "eq", m]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: cc family size must be in [0, 4], got {m}"


def _rewrite(path, edit):
    recs = records_of(path)
    edit(recs)
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(rec) + "\n" for rec in recs))


@pytest.mark.parametrize(
    "edit",
    [
        lambda recs: recs.__setitem__(1, [1, 2]),
        lambda recs: recs[-1].__setitem__("asserts", [1]),
    ],
    ids=["list-record", "list-asserts"],
)
def test_verify_malformed_later_record_fails_cleanly(workspace, capsys, edit):
    out = str(workspace["dir"] / "prt.jsonl")
    assert main(["bounds", workspace["and2"], "--which", "prt", "--eps", "1/3", "--out", out]) == 0
    _rewrite(out, edit)
    assert main(["verify", out]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL records reproduce byte-identically" in lines
    assert lines[-1] == "verify: FAIL"


@pytest.mark.parametrize(
    ("command", "key", "value", "message"),
    [
        ("bounds", "eps", 5, "bounds run record arg eps is int, not str"),
        ("bounds", "which", None, "bounds run record arg which is NoneType, not str"),
        ("oracle", "depth", None, "oracle run record arg depth is NoneType, not int"),
        ("oracle", "depth", "1", "oracle run record arg depth is str, not int"),
        ("oracle", "artifact", ["a"], "oracle run record arg artifact is list, not str or NoneType"),
    ],
    ids=["bounds-eps-int", "bounds-which-null", "oracle-depth-null", "oracle-depth-str",
         "oracle-artifact-list"],
)
def test_verify_wrongly_typed_run_arg_exits_1(workspace, capsys, command, key, value, message):
    out = str(workspace["dir"] / "r.jsonl")
    if command == "bounds":
        argv = ["bounds", workspace["and2"], "--which", "prt", "--eps", "1/3"]
    else:
        argv = ["oracle", workspace["xor2"], workspace["bits"], "--depth", "1"]
    assert main(argv + ["--out", out]) == 0
    _rewrite(out, lambda recs: recs[0]["args"].__setitem__(key, value))
    capsys.readouterr()
    assert main(["verify", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {message}"


def test_verify_replayed_unknown_bound_kind_exits_1(workspace, capsys):
    out = str(workspace["dir"] / "r.jsonl")
    assert main(["bounds", workspace["and2"], "--which", "prt", "--eps", "1/3", "--out", out]) == 0
    _rewrite(out, lambda recs: recs[0]["args"].__setitem__("which", "foo"))
    capsys.readouterr()
    assert main(["verify", out]) == 1
    err = capsys.readouterr().err.splitlines()
    allowed = "srec, prt, rprt, qprt, chain"
    assert len(err) == 2 and err[0] == f"error: bounds run record arg which is 'foo', not one of {allowed}"


@pytest.mark.parametrize(
    ("argv", "key", "allowed"),
    [
        (["synth-cc", "@and2", "@dist", "--part", "1"], "part", "1, 2"),
        (["bounds", "@and2", "--which", "srec", "--eps", "1/3", "--z", "1"], "z", "0, 1"),
        (["bounds", "@and2", "--which", "prt", "--eps", "1/3"], "which", "srec, prt, rprt, qprt, chain"),
    ],
    ids=["synth-cc-part", "bounds-z", "bounds-which"],
)
def test_verify_replayed_arg_outside_its_choices_exits_1(workspace, capsys, argv, key, allowed):
    """A replayed choice flag is checked against its flag's choices before anything runs."""
    out = str(workspace["dir"] / "r.jsonl")
    main([_fill(workspace, arg) for arg in argv] + ["--out", out])
    _rewrite(out, lambda recs: recs[0]["args"].__setitem__(key, "x"))
    capsys.readouterr()
    assert main(["verify", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {argv[0]} run record arg {key} is 'x', not one of {allowed}"


def test_verify_a_function_file_exits_1_naming_its_first_line(workspace, capsys):
    assert main(["verify", workspace["and2"]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == "error: record line 1 is not JSON: Expecting value"


@pytest.mark.parametrize("command", ["verify", "bounds", "oracle"])
def test_a_file_that_is_not_utf8_exits_1_naming_it(workspace, capsys, command):
    path = str(workspace["dir"] / "bom.jsonl")
    Path(path).write_bytes(b"\xff\xfe{}\n")
    argv = {
        "verify": ["verify", path],
        "bounds": ["bounds", path, "--which", "prt", "--eps", "1/8"],
        "oracle": ["oracle", path, workspace["bits"], "--depth", "1"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {path} is not UTF-8: byte 0 is 0xff"


@pytest.mark.parametrize("text", ["", '{"record": "summary", "pass": true}\n'], ids=["empty", "summary"])
def test_verify_report_without_a_run_record_fails(workspace, capsys, text):
    path = write(workspace["dir"] / "norun.jsonl", text)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"FAIL {path}: missing run record", "verify: FAIL"]


def test_verify_report_with_a_deleted_input_fails(workspace, capsys):
    out = str(workspace["dir"] / "chain.jsonl")
    assert main(["bounds", workspace["and2"], "--which", "chain", "--eps", "1/3", "--out", out]) == 0
    os.remove(workspace["and2"])
    capsys.readouterr()
    assert main(["verify", out]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"FAIL input {workspace['and2']}: unreadable", "verify: FAIL"]


def _fill(workspace, text):
    """``text`` with each ``@name`` replaced by the workspace file of that name."""
    for name, path in workspace.items():
        if isinstance(path, str):
            text = text.replace(f"@{name}", path)
    return text


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["synth-cc", "@xor2", "@dist", "--part", "1"],
         "@xor2 holds a query function; a cc table is required"),
        (["bounds", "@xor2", "--which", "prt", "--eps", "1/8"], "prt needs a cc function file"),
        (["bounds", "@xor2", "--which", "chain", "--eps", "1/8"], "chain needs a cc function file"),
        (["bounds", "@xor2", "--which", "srec", "--eps", "1/8"], "srec needs a cc function file"),
        (["synth-qc", "@and2", "@bits"], "@and2 holds a cc table; a query function is required"),
        (["bounds", "@and2", "--which", "qprt", "--eps", "1/8"], "qprt needs a qc function file"),
        (["synth-cc", "@and2", "@bits", "--part", "1"],
         "synth-cc needs a rows/cols product distribution"),
        (["bounds", "@and2", "--which", "srec", "--eps", "1/8", "--dist", "@bits"],
         "srec needs a rows/cols product distribution"),
        (["oracle", "@and2", "@bits", "--depth", "1"],
         "two-party oracle needs a rows/cols distribution"),
        (["synth-qc", "@xor2", "@dist"], "synth-qc needs a bit-wise `p:` distribution"),
        (["oracle", "@xor2", "@dist", "--depth", "1"], "query oracle needs a `p:` distribution"),
        # --delta, --z and --dist are srec's alone; the first one set is named
        (["bounds", "@and2", "--which", "prt", "--eps", "1/8", "--dist", "@dist", "--z", "1",
          "--delta", "1/2"], "prt takes no --delta; only srec reads it"),
        (["bounds", "@and2", "--which", "rprt", "--eps", "1/8", "--z", "0"],
         "rprt takes no --z; only srec reads it"),
        (["bounds", "@and2", "--which", "chain", "--eps", "1/8", "--dist", "@dist"],
         "chain takes no --dist; only srec reads it"),
        (["bounds", "@xor2", "--which", "qprt", "--eps", "1/8", "--delta", "1/16"],
         "qprt takes no --delta; only srec reads it"),
        (["synth-cc", "@and2", "@dist", "--part", "1", "--k", "7"],
         "part 1 takes no k; only part 2 reads it"),
    ],
    ids=["synth-cc-qc-fn", "prt-qc-fn", "chain-qc-fn", "srec-qc-fn", "synth-qc-cc-fn",
         "qprt-cc-fn", "synth-cc-p-dist", "srec-p-dist", "oracle-cc-p-dist",
         "synth-qc-rows-dist", "oracle-qc-rows-dist", "prt-srec-flags", "rprt-z",
         "chain-dist", "qprt-delta", "synth-cc-part1-k"],
)
def test_wrong_kind_of_input_exits_1(workspace, capsys, argv, message):
    assert main([_fill(workspace, arg) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {_fill(workspace, message)}"


BOUNDS = ["bounds", "@bad", "--which", "chain", "--eps", "1/8"]


@pytest.mark.parametrize(
    ("text", "argv", "message"),
    [
        ("\n\n", BOUNDS, "empty function file"),
        ("cc 2 2\n01\n", BOUNDS, "expected 2 table rows, found 1"),
        ("cc 2 2\n01\n0x\n", BOUNDS, "bad table row '0x'"),
        ("qc 2 3\n0110\n", BOUNDS, "qc header must be `qc <n>`"),
        ("qc 2\n0110\n0110\n", BOUNDS, "qc format is a header line plus one table line"),
        ("xx 2\n0110\n", BOUNDS, "unknown function header 'xx'; expected cc or qc"),
        ("rows 1/4 1/4 1/4 1/4\n", ["oracle", "@and2", "@bad", "--depth", "1"],
         "bad distribution line 'rows 1/4 1/4 1/4 1/4'"),
        ("rows: 1/2 1/2\np: 1/2\n", ["oracle", "@xor2", "@bad", "--depth", "1"],
         "bit-wise distribution files carry a single `p:` line"),
        ("dtree v1\nQ 0\nL 0\nL 1\nL 0\n", ["oracle", "@xor2", "@bits", "--depth", "1", "--artifact", "@bad"],
         "trailing lines after the decision tree"),
        ("ptree v1\nL 1\nI A 1\n", ["oracle", "@and2", "@dist", "--depth", "1", "--artifact", "@bad"],
         "trailing lines after the protocol tree"),
    ],
    ids=["empty-fn", "cc-row-count", "cc-bad-char", "qc-header-fields", "qc-extra-line",
         "unknown-header", "dist-no-colon", "dist-p-and-rows", "dtree-trailing", "ptree-trailing"],
)
def test_malformed_input_file_exits_1_with_one_error_line(workspace, capsys, text, argv, message):
    workspace["bad"] = write(workspace["dir"] / "bad.txt", text)
    assert main([_fill(workspace, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {message}" and not err[1].startswith("error:")
    assert "Traceback" not in captured.err and captured.out == ""


def test_repeated_distribution_line_exits_1(workspace, capsys):
    dist = write(workspace["dir"] / "twice.bits", "p: 1/2 1/2\np: 1 0\n")
    assert main(["oracle", workspace["xor2"], dist, "--depth", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == "error: distribution file repeats the `p:` line"


@pytest.mark.parametrize(
    ("argv", "with_optional"),
    [
        (["bounds", "@and2", "--which", "srec", "--eps", "1/8"], False),
        (["bounds", "@and2", "--which", "srec", "--eps", "1/8", "--delta", "1/16", "--z", "1",
          "--dist", "@dist"], True),
        (["synth-cc", "@and2", "@dist", "--part", "1"], False),
        (["synth-cc", "@and2", "@dist", "--part", "2", "--k", "20"], True),
        (["synth-qc", "@xor2", "@bits"], False),
        (["synth-qc", "@xor2", "@bits", "--eps", "1/4", "--delta", "1/16"], True),
        (["oracle", "@xor2", "@bits", "--depth", "1"], False),
        (["oracle", "@xor2", "@bits", "--depth", "1", "--artifact", "@tree"], True),
    ],
    ids=["bounds-required", "bounds-all", "synth-cc-required", "synth-cc-all",
         "synth-qc-required", "synth-qc-all", "oracle-required", "oracle-all"],
)
def test_run_record_round_trips_through_the_command_table(workspace, argv, with_optional):
    workspace["tree"] = write(workspace["dir"] / "leaf.dtree", "dtree v1\nL 1\n")
    argv = [_fill(workspace, arg) for arg in argv]
    out = str(workspace["dir"] / "run.jsonl")
    assert main(argv + ["--out", out]) == 0
    run = records_of(out)[0]
    cli._check_run_record(run)
    types = cli._COMMANDS[argv[0]].arg_types()
    assert set(run["args"]) == set(types)
    unset = {key for key, value in run["args"].items() if value is None}
    assert unset == (set() if with_optional else {k for k, t in types.items() if type(None) in t})
    assert main(["verify", out]) == 0


@pytest.mark.parametrize(
    ("family", "side"),
    [("eq", "cc"), ("gt", "cc"), ("disj", "cc"), ("and", "qc"), ("or", "qc"), ("xor", "qc"),
     ("maj", "qc")],
)
def test_gen_default_side(workspace, family, side):
    out = str(workspace["dir"] / "f.txt")
    assert main(["gen", family, "1", "--out", out]) == 0
    with open(out) as fh:
        assert fh.read() == serialize.write_function(families.make_function(family, 1, side))


def test_gen_or_cc_side(capsys):
    assert main(["gen", "or", "2", "--side", "cc"]) == 0
    assert capsys.readouterr().out == "cc 4 4\n0111\n1111\n1111\n1111\n"


def test_gen_unknown_family_names_the_query_table(capsys):
    assert main(["gen", "foo", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: unknown qc family 'foo'; available: ['and', 'maj', 'or', 'xor']"


def _fresh(argv):
    """(exit code, stdout, stderr) of ``lpbounds argv`` in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lpbounds.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_synth_qc_near_half_eps_gives_up_on_the_vote_search(workspace):
    """At eps = 499/1000 no odd vote count up to 20001 boosts xor2 to 9^-8."""
    code, out, err = _fresh(["synth-qc", workspace["xor2"], workspace["bits"], "--eps", "499/1000"])
    err = err.splitlines()
    assert (code, out, len(err)) == (1, "", 2)
    assert err[0] == "error: no odd vote count up to 20001 reaches error 1/43046721"


def test_repeated_main_calls_match_fresh_processes(workspace, capsys):
    """The parser is built once per process; no call may see state an earlier one left."""
    oracle = ["oracle", workspace["xor2"], workspace["bits"], "--depth", "1"]
    calls = [oracle, oracle + ["--bogus"], ["gen", "maj", "3"],
             ["synth-qc", workspace["xor2"], workspace["bits"]]]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh_code, fresh_out, fresh_err = _fresh(argv)
        assert (code, captured.out) == (fresh_code, fresh_out)
        if code == 2:  # argparse's usage line and message carry no timing
            assert captured.err == fresh_err


def test_the_console_script_resolves_to_a_callable():
    """pyproject.toml's ``lpbounds`` script names a callable; the other tests run ``-m lpbounds.cli``.

    The line is read by a plain text scan: Python 3.10 has no ``tomllib``.
    """
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    ((module, attr),) = re.findall(r'^lpbounds\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.MULTILINE)
    assert (module, attr) == ("lpbounds.cli", "main")
    assert callable(getattr(importlib.import_module(module), attr))


# --- the writer: every report, tree and ``gen`` output goes through ``cli._write``


def _qprt_report(workspace, out):
    return main(["bounds", workspace["xor2"], "--which", "qprt", "--eps", "1/8", "--out", str(out)])


def test_a_report_over_a_longer_stale_file_leaves_exactly_its_bytes(workspace, capsys):
    fresh, stale = workspace["dir"] / "fresh.jsonl", workspace["dir"] / "stale.jsonl"
    assert _qprt_report(workspace, fresh) == 0
    stale.write_bytes(b"x" * (3 * len(fresh.read_bytes())))
    assert _qprt_report(workspace, stale) == 0
    assert stale.read_bytes() == fresh.read_bytes()
    assert main(["verify", str(stale)]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_an_overwrite_keeps_the_inode_and_mode(workspace):
    out = workspace["dir"] / "kept.jsonl"
    out.write_text("an older report\n")
    out.chmod(0o640)
    before = out.stat()
    assert _qprt_report(workspace, out) == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert records_of(out)[1]["value"] == "49/4"


def test_out_through_a_symlink_updates_the_target_and_keeps_the_link(workspace):
    target, link = workspace["dir"] / "target.jsonl", workspace["dir"] / "link.jsonl"
    target.write_text("an older report, longer than nothing at all\n" * 50)
    link.symlink_to(target.name)
    assert _qprt_report(workspace, link) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert records_of(target)[1]["value"] == "49/4"


def test_out_to_the_null_device_exits_0(workspace):
    assert _qprt_report(workspace, os.devnull) == 0
    assert main(["gen", "maj", "3", "--out", os.devnull]) == 0


def test_no_output_is_truncated_on_open(workspace, monkeypatch):
    """Existing outputs are rewritten in place: no ``O_TRUNC`` and no ``"w"`` mode."""
    out, tree = workspace["dir"] / "sqc.jsonl", workspace["dir"] / "xor2.dtree"
    argv = ["synth-qc", workspace["xor2"], workspace["bits"], "--out", str(out), "--tree-out", str(tree)]
    assert main(argv) == 0
    expected = out.read_bytes(), tree.read_bytes()
    out.write_text("stale\n" * 1000)
    tree.write_text("stale\n" * 1000)
    outputs = {str(out), str(tree)}
    opened = []
    os_open, builtin_open = os.open, builtins.open

    def record_os_open(path, flags, *args, **kwargs):
        if os.fspath(path) in outputs:
            opened.append(("os.open", os.fspath(path), flags & os.O_TRUNC != 0))
        return os_open(path, flags, *args, **kwargs)

    def record_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) in outputs:
            opened.append(("open", os.fspath(file), "w" in mode))
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", record_os_open)
    monkeypatch.setattr(builtins, "open", record_open)
    assert main(argv) == 0
    monkeypatch.undo()
    assert {path for _, path, _ in opened} == outputs
    assert [entry for entry in opened if entry[2]] == []
    assert (out.read_bytes(), tree.read_bytes()) == expected


@pytest.mark.parametrize(
    ("argv", "flag", "where"),
    [
        (["gen", "maj", "3"], "--out", "dir"),
        (["bounds", "xor2", "--which", "qprt", "--eps", "1/8"], "--out", "dir"),
        (["bounds", "xor2", "--which", "qprt", "--eps", "1/8"], "--out", "missing"),
        (["synth-qc", "xor2", "bits"], "--tree-out", "dir"),
        (["synth-qc", "xor2", "bits"], "--tree-out", "missing"),
    ],
)
def test_an_unwritable_output_path_exits_1_with_one_error_line(workspace, capsys, argv, flag, where):
    path = str(workspace["dir"]) if where == "dir" else str(workspace["dir"] / "missing" / "out")
    code = errno.EISDIR if where == "dir" else errno.ENOENT
    argv = [workspace.get(arg, arg) for arg in argv]
    assert main(argv + [flag, path]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and err[1].startswith(f"[{argv[0]} ")
    assert err[0] == f"error: [Errno {code}] {os.strerror(code)}: {path!r}"
    assert captured.out == ""
