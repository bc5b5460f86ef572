import json
import tracemalloc

import pytest

from lpbounds import serialize
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
