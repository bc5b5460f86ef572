"""List every statement of ``src/lpbounds`` that the test suite never runs.

Run by hand from the repository root; pytest does not collect this file:

    python tests/line_coverage.py            # the tier-1 suite
    python tests/line_coverage.py tests/test_qcsynth.py -k pipeline

Extra arguments go to pytest.  The suite runs in this process under a
stdlib ``sys.settrace`` hook that records the lines executed in
``src/lpbounds``; code run in a subprocess (the CLI and demo tests start
some) is not seen.  A statement counts as run when any line of its own
span ran: a compound statement (``if``, ``for``, ``def``, ...) is judged by
its header alone.  The spans are read before the suite starts, so an edit
to the source during the run does not move them.  The report prints
``module.py: line, line, ...`` for each module with unexecuted statements
and ends with their total; the exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lpbounds"


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement; declarations and docstrings left out.

    A compound statement spans its header: up to the line before its
    first body statement.
    """
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue  # a declaration or a docstring runs nothing
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            decorators = [d.lineno for d in getattr(node, "decorator_list", [])]
            spans.append((min([node.lineno, *decorators]), max(node.lineno, body[0].lineno - 1)))
        else:
            spans.append((node.lineno, node.end_lineno))
    return spans


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))  # trace this checkout, not an installed copy
    import pytest

    prefix = str(PACKAGE) + "/"
    spans = {path: statement_spans(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hit[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(scope)
    sys.settrace(scope)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path, statements in spans.items():
        ran = hit.get(str(path), set())
        missed = sorted(first for first, last in statements if not ran.intersection(range(first, last + 1)))
        if missed:
            total += len(missed)
            print(f"{path.name}: {', '.join(map(str, missed))}")
    print(f"{total} unexecuted statements in src/lpbounds")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
