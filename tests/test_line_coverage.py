"""The line-coverage tool reads its statement spans from the source as the run found it."""

import sys
import threading

import line_coverage
import pytest

SOURCE = "def f(x):\n    if x:\n        return 1\n    return 2\n"


def test_report_uses_the_spans_of_the_source_the_run_started_from(tmp_path, monkeypatch, capsys):
    """A copy of a module is run, then edited mid-run; the report keeps its first spans.

    The stubbed suite runs f(1), so of the four statements only ``return 2``
    (line 4) is unexecuted.  The edit puts two lines in front: read after
    the run, the spans would list lines 4, 5 and 6 as unexecuted.
    """
    module = tmp_path / "module.py"
    module.write_text(SOURCE, encoding="utf-8")

    def suite(args):
        namespace = {}
        exec(compile(SOURCE, str(module), "exec"), namespace)
        namespace["f"](1)
        module.write_text("# edited\n\n" + SOURCE, encoding="utf-8")
        return 0

    monkeypatch.setattr(line_coverage, "PACKAGE", tmp_path)
    monkeypatch.setattr(pytest, "main", suite)
    monkeypatch.setattr(sys, "path", list(sys.path))
    traces = sys.gettrace(), threading.gettrace()  # a tracing run of this suite keeps its hook
    try:
        status = line_coverage.main([])
    finally:
        sys.settrace(traces[0])
        threading.settrace(traces[1])
    assert (status, capsys.readouterr().out) == (0, "module.py: 4\n1 unexecuted statements in src/lpbounds\n")
