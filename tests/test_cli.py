import json
import tracemalloc

import pytest

from lpbounds import cli, families, serialize
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
    ],
    ids=["synth-cc-qc-fn", "prt-qc-fn", "chain-qc-fn", "srec-qc-fn", "synth-qc-cc-fn",
         "qprt-cc-fn", "synth-cc-p-dist", "srec-p-dist", "oracle-cc-p-dist",
         "synth-qc-rows-dist", "oracle-qc-rows-dist"],
)
def test_wrong_kind_of_input_exits_1(workspace, capsys, argv, message):
    assert main([_fill(workspace, arg) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"error: {_fill(workspace, message)}"


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


def test_gen_unknown_family_names_the_query_table(capsys):
    assert main(["gen", "foo", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: unknown qc family 'foo'; available: ['and', 'maj', 'or', 'xor']"
