"""Static checks on the source of ``src/lpbounds``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lpbounds").glob("*.py"))

# Each defaulted parameter is one more configuration to test; ROADMAP.md
# records the count, and a change that adds a default argues for it there.
DEFAULTED_PARAMETERS = 7


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` imports and never reads (an ``__all__`` entry counts as a read)."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def _defaulted_parameters(tree: ast.Module) -> int:
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(_tree(path)) == []


def test_unused_import_scan_sees_one():
    tree = ast.parse("import json\nfrom .model import A, B as C\n__all__ = ['A']\n")
    assert _unused_imports(tree) == ["json", "C"]


def test_defaulted_parameter_count_is_pinned():
    assert SOURCES
    assert sum(_defaulted_parameters(_tree(path)) for path in SOURCES) == DEFAULTED_PARAMETERS
