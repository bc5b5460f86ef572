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


def _private_imports(tree: ast.Module) -> list[str]:
    """The ``_``-prefixed names ``tree`` takes from another lpbounds module, by import
    or as an attribute of a module it imports from the package."""
    out = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lpbounds")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append(alias.name)
                elif node.module in (None, "lpbounds"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            out.append(f"{node.value.id}.{node.attr}")
    return out


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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_no_private_name_of_a_sibling(path):
    assert _private_imports(_tree(path)) == []


def test_private_import_scan_sees_each_form():
    tree = ast.parse(
        "from .ccbounds import finish, _finish\n"
        "from lpbounds.model import _integer_weights as weights\n"
        "from . import lp as lpmod\n"
        "from fractions import _gcd\n"
        "lpmod._cache_dir, lpmod.solve\n"
    )
    assert _private_imports(tree) == ["_finish", "_integer_weights", "lpmod._cache_dir"]


def test_defaulted_parameter_count_is_pinned():
    assert SOURCES
    assert sum(_defaulted_parameters(_tree(path)) for path in SOURCES) == DEFAULTED_PARAMETERS
