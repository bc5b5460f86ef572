"""Static checks on the source of ``src/lpbounds``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lpbounds").glob("*.py"))

# Each defaulted parameter is one more configuration to test; ROADMAP.md
# records the count, and a change that adds a default argues for it there.
DEFAULTED_PARAMETERS = 3


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


def _foreign_imports(tree: ast.Module) -> list[str]:
    """The modules ``tree`` imports from outside the standard library and lpbounds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append(node.module)
    return [name for name in out
            if name.split(".")[0] not in (*sys.stdlib_module_names, "lpbounds")]


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for each parameter of a ``def`` that its body never reads.

    A read in a nested function or lambda counts.  Lambdas are not checked:
    a family's cost or a constant callback may ignore its argument.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if arg is not None
        ]
        read = {name.id for stmt in node.body for name in ast.walk(stmt) if isinstance(name, ast.Name)}
        out += [f"{node.name}({param})" for param in params if param not in read]
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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    # a parameter nothing reads is an argument every caller computes for nothing
    assert _unread_parameters(_tree(path)) == []


def test_unread_parameter_scan_sees_each_form():
    tree = ast.parse(
        "def f(a, b, /, c, *args, d, **kw):\n"
        "    return a\n"
        "class C:\n"
        "    def m(self, x, y=1):\n"
        "        def inner():\n"
        "            return x\n"
        "        return lambda z: inner\n"
        "    async def n(self):\n"
        "        return self\n"
    )
    assert _unread_parameters(tree) == [
        "f(b)", "f(c)", "f(d)", "f(args)", "f(kw)", "m(self)", "m(y)",
    ]


def test_defaulted_parameter_count_is_pinned():
    assert SOURCES
    assert sum(_defaulted_parameters(_tree(path)) for path in SOURCES) == DEFAULTED_PARAMETERS


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_the_standard_library_and_lpbounds(path):
    # pyproject.toml declares no dependency: the package is pure Python
    assert _foreign_imports(_tree(path)) == []


def test_foreign_import_scan_sees_each_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json, numpy as np\n"
        "import os.path\n"
        "from scipy.optimize import linprog\n"
        "from . import lp\n"
        "from .model import A\n"
        "from lpbounds.trees import Leaf\n"
        "def f():\n"
        "    import sympy\n"
    )
    assert _foreign_imports(tree) == ["numpy", "scipy.optimize", "sympy"]


# a record class costs nothing to define: dataclasses execs generated code for every
# class, and it and inspect (which it pulls in) take longer to import than the package
SLOW_IMPORTS = ("dataclasses", "inspect")


def _slow_imports(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that import one of ``SLOW_IMPORTS``, in any form, in order."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in SLOW_IMPORTS for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_neither_dataclasses_nor_inspect(path):
    assert _slow_imports(_tree(path)) == []


def test_slow_import_scan_sees_each_form():
    tree = ast.parse(
        "import dataclasses\n"
        "import json, dataclasses as dc\n"
        "from dataclasses import dataclass, field\n"
        "from .dataclasses import Record\n"
        "def f():\n"
        "    import inspect\n"
        "from inspect import signature\n"
        "import dis\n"
    )
    assert _slow_imports(tree) == [1, 2, 3, 6, 7]


def test_importing_every_module_loads_neither_dataclasses_nor_inspect():
    names = ["lpbounds" if p.stem == "__init__" else f"lpbounds.{p.stem}" for p in SOURCES]
    code = (f"import importlib, sys\nfor name in {names!r}:\n    importlib.import_module(name)\n"
            f"print(sorted(set({SLOW_IMPORTS!r}) & sys.modules.keys()))")
    # -S: no site hook runs, so every module loaded is one the package asks for
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _function_imports(tree: ast.Module) -> list[str]:
    """The modules ``tree`` imports inside a function, in source order."""
    nodes = {
        node
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    out = []
    for node in sorted(nodes, key=lambda node: node.lineno):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        else:
            out.append("." * node.level + (node.module or ""))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_at_module_level(path):
    # a call-time import hides a dependency and runs on every call
    assert _function_imports(_tree(path)) == []


def test_function_import_scan_sees_each_form():
    tree = ast.parse(
        "import json\n"
        "from . import lp\n"
        "def f():\n"
        "    from .qcbounds import qprt_bound\n"
        "    def g():\n"
        "        import os.path, sys\n"
        "class C:\n"
        "    async def h(self):\n"
        "        from . import rational\n"
    )
    assert _function_imports(tree) == [".qcbounds", "os.path", "sys", "."]


# the packed-int slot format is read and written by lp's module-level codec alone
SLOT_FORMAT = {"_WORDS", "memoryview", "to_bytes", "from_bytes"}


def _slot_format_methods(tree: ast.Module) -> list[str]:
    """The methods of ``_Simplex`` other than ``__init__`` that name a piece of the slot format."""
    (simplex,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Simplex"]
    return [
        method.name
        for method in simplex.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        and any(
            (isinstance(node, ast.Name) and node.id in SLOT_FORMAT)
            or (isinstance(node, ast.Attribute) and node.attr in SLOT_FORMAT)
            for node in ast.walk(method)
        )
    ]


def test_simplex_methods_leave_the_slot_format_to_the_codec():
    lp = next(path for path in SOURCES if path.name == "lp.py")
    assert _slot_format_methods(_tree(lp)) == []


def test_slot_format_scan_sees_each_form():
    tree = ast.parse(
        "class _Simplex:\n"
        "    def __init__(self):\n"
        "        _WORDS.get(16)\n"
        "    def a(self):\n"
        "        return memoryview(b'').cast('h')\n"
        "    def b(self, c):\n"
        "        return c.to_bytes(2, 'little')\n"
        "    def c(self):\n"
        "        return int.from_bytes(b'', 'little')\n"
        "    def d(self):\n"
        "        return _unpack([], 0, 16, 0)\n"
    )
    assert _slot_format_methods(tree) == ["a", "b", "c"]


# the communication side and the query side share lp, partition, model and
# rational, and neither imports the other
SIDES = {"ccbounds": "cc", "ccsynth": "cc", "qcbounds": "qc", "qcsynth": "qc"}
SIDED = [path for path in SOURCES if path.stem in SIDES]


def _package_imports(tree: ast.Module) -> set[str]:
    """The lpbounds modules ``tree`` imports, in any form."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("lpbounds.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "lpbounds"):
            module = (node.module or "").removeprefix("lpbounds").lstrip(".")
            out |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return out


@pytest.mark.parametrize("path", SIDED, ids=[p.name for p in SIDED])
def test_one_side_imports_nothing_of_the_other(path):
    side = SIDES[path.stem]
    assert sorted(m for m in _package_imports(_tree(path)) if SIDES.get(m, side) != side) == []


def test_package_import_scan_sees_each_form():
    tree = ast.parse(
        "import json, lpbounds.ccsynth\n"
        "from . import lp as lpmod, qcbounds\n"
        "from .ccbounds import SrecInstance\n"
        "from lpbounds.model import Subcube\n"
        "from lpbounds import trees\n"
        "from fractions import Fraction\n"
    )
    assert _package_imports(tree) == {"ccsynth", "lp", "qcbounds", "ccbounds", "model", "trees"}


def _unread_private_names(trees: list[ast.Module]) -> list[str]:
    """The ``_``-prefixed functions, methods, classes and module-level names that ``trees``
    define and no code in ``trees`` reads, apart from their own definition; dunders are exempt.

    A read is a loaded name or attribute anywhere in ``trees``; a function's
    reads of its own name inside its body do not count.
    """
    defined, reads = [], {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
                if not isinstance(node, ast.ClassDef):  # a recursive call is no use from outside
                    own = sum(
                        isinstance(sub, ast.Name) and sub.id == node.name and isinstance(sub.ctx, ast.Load)
                        for stmt in node.body for sub in ast.walk(stmt)
                    )
                    reads[node.name] = reads.get(node.name, 0) - own
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads[name] = reads.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and reads.get(name, 0) <= 0
    )


def test_package_reads_every_private_name_it_defines():
    # a private name nothing in the package reads is dead code, or a copy left behind
    assert _unread_private_names([_tree(path) for path in SOURCES]) == []


def test_unread_private_name_scan_sees_each_form():
    tree = ast.parse(
        "_USED, _UNUSED = 1, 2\n"
        "_LIMIT: int = 3\n"
        "_used = _LIMIT + _USED\n"
        "class _Kept:\n"
        "    def __init__(self):\n"
        "        self._helper()\n"
        "    def _helper(self):\n"
        "        return _walk(0)\n"
        "    def _dropped(self):\n"
        "        return 0\n"
        "def _walk(k):\n"
        "    return _walk(k - 1) if k else _Kept\n"
        "def _loop(k):\n"
        "    return _loop(k - 1)\n"
        "def _project(cubes, region):\n"
        "    return cubes\n"
    )
    other = ast.parse("from .mod import _used\n_used\n")
    assert _unread_private_names([tree, other]) == ["_UNUSED", "_dropped", "_loop", "_project"]


def _unread_instance_attributes(trees: list[ast.Module]) -> list[str]:
    """The attributes that ``trees`` assign as ``self.<name>`` and no code in ``trees`` reads.

    A read is a loaded attribute of that name on any object, anywhere in
    ``trees``: ``self.table[k] = v`` loads ``table``, so it reads it.  An
    augmented assignment ``self.<name> += 1`` only stores, so a counter
    that nothing else reads is unread.
    """
    assigned, read = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self":
                assigned.add(node.attr)
    return sorted(assigned - read)


def test_package_reads_every_instance_attribute_it_assigns():
    # a field nothing reads is state every method keeps up for nothing
    assert _unread_instance_attributes([_tree(path) for path in SOURCES]) == []


def test_unread_instance_attribute_scan_sees_each_form():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self.kept, self.dropped = 1, 2\n"
        "        self.counter: int = 0\n"
        "        self.table = {}\n"
        "        other.foreign = 3\n"
        "    def step(self, other):\n"
        "        self.counter += 1\n"
        "        self.table[0] = other.kept\n"
    )
    other = ast.parse(
        "class B:\n"
        "    def __init__(self):\n"
        "        self.shared = 0\n"
        "def f(a):\n"
        "    return a.shared\n"
    )
    assert _unread_instance_attributes([tree, other]) == ["counter", "dropped"]


# A record keeps what it works out in its inline values, set once with records.set_field: an
# instance __dict__ that code reads or writes is materialised, and every later field read of
# that instance is several times slower.  A cached_property writes that dict too, so lp.Row,
# the record every solve reads most, has none.
def _instance_dict_uses(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that read or write an instance ``__dict__``: ``x.__dict__`` on anything
    but a class (``cls`` or ``type(...)``), or ``vars(x)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            base = node.value
            if not (isinstance(base, ast.Name) and base.id == "cls"
                    or isinstance(base, ast.Call) and getattr(base.func, "id", None) == "type"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars" and node.args:
            lines.append(node.lineno)
    return sorted(lines)


def _cached_properties(tree: ast.Module, name: str) -> list[str]:
    """The methods of class ``name`` in ``tree`` decorated ``cached_property`` or ``functools.cached_property``."""
    return [
        item.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == name
        for item in node.body if isinstance(item, ast.FunctionDef)
        for decorator in item.decorator_list
        if getattr(decorator, "id", None) == "cached_property" or getattr(decorator, "attr", None) == "cached_property"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_reads_and_writes_no_instance_dict(path):
    assert _instance_dict_uses(_tree(path)) == []


def test_a_row_has_no_cached_property():
    assert _cached_properties(_tree(SOURCES[0].parent / "lp.py"), "Row") == []


def test_instance_dict_scan_sees_each_form():
    tree = ast.parse(
        "self.__dict__['key'] = key\n"
        "held = row.__dict__\n"
        "vars(self)['key'] = key\n"
        "fields = cls.__dict__.get('__annotations__', ())\n"
        "fields = type(self).__dict__\n"
        "names = vars()\n"
        "record.__dict__.update(fields)\n"
    )
    assert _instance_dict_uses(tree) == [1, 2, 3, 7]


def test_cached_property_scan_sees_each_form():
    tree = ast.parse(
        "class Row:\n"
        "    @cached_property\n"
        "    def key(self): ...\n"
        "    @functools.cached_property\n"
        "    def image(self): ...\n"
        "    @property\n"
        "    def size(self): ...\n"
        "    def plain(self): ...\n"
        "class Names:\n"
        "    @cached_property\n"
        "    def header(self): ...\n"
    )
    assert (_cached_properties(tree, "Row"), _cached_properties(tree, "Names")) == (["key", "image"], ["header"])


# a measure is read as integer label sums alone; tests/reference_model.py keeps the Fraction view
def _label_mass_reads(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that define or read ``label_masses``: as a function, an attribute,
    a name or a getattr string."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "label_masses")
        or (isinstance(node, ast.Attribute) and node.attr == "label_masses")
        or (isinstance(node, ast.Name) and node.id == "label_masses")
        or (isinstance(node, ast.Constant) and node.value == "label_masses")
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_trees_reads_label_masses(path):  # named when trees read it; now no module does
    assert _label_mass_reads(_tree(path)) == []


def test_label_mass_read_scan_sees_each_form():
    tree = ast.parse(
        "m0, m1 = mu.label_masses(f, active)\n"
        "mu1 = self.mu.label_masses(g, cube)[1]\n"
        "read = mu.label_masses\n"
        "sums = mu.label_sums(f, active)\n"
        "def label_masses(self, fn, region):\n"
        "    return getattr(self, 'label_masses')(fn, region)\n"
        "label_masses(f, block)\n"
        "'the message label_masses gives'\n"
    )
    assert _label_mass_reads(tree) == [1, 2, 3, 5, 6, 7]


# a measure's check_shape is the one refusal of a function or region of another shape
SHAPE_MESSAGE_PREFIXES = ("bit counts disagree", "measure is", "rectangle reaches past the table")


def _shape_messages(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` whose string constants, f-string parts included, spell a
    measure/function/region mismatch."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and (node.value.startswith(SHAPE_MESSAGE_PREFIXES) or "shape does not match" in node.value)
    )


SHAPE_CHECKERS = [path for path in SOURCES if path.stem != "model"]


@pytest.mark.parametrize("path", SHAPE_CHECKERS, ids=[p.name for p in SHAPE_CHECKERS])
def test_only_model_spells_a_shape_mismatch(path):
    assert _shape_messages(_tree(path)) == []


def test_shape_message_scan_sees_each_form():
    tree = ast.parse(
        "raise DimensionMismatchError('bit counts disagree')\n"
        "raise DimensionMismatchError(f'bit counts disagree: measure {mu.n}, function {g.n}')\n"
        "raise DimensionMismatchError(f'measure is {mu.nx}x{mu.ny} but function is {f.nx}x{f.ny}')\n"
        "raise DimensionMismatchError('distribution shape does not match function')\n"
        "raise DimensionMismatchError(f'the {name} shape does not match the function')\n"
        "raise DimensionMismatchError(f'rectangle reaches past the table: measure {mu.nx}x{mu.ny}, '\n"
        "                             f'rectangle {rect.rows:x}_{rect.cols:x}')\n"
        "'the measure is normalized'\n"
        "mu.check_shape(g, None)\n"
    )
    assert _shape_messages(tree) == [1, 2, 3, 4, 5, 6]
