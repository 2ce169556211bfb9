"""The package's modules import one another without a cycle, and import nothing they do not use.

Every import of a package module counts, at any depth: an import inside a
function runs later than one at the top of the module, but a cycle it
closes is still a cycle, and deferring the import only hides it.

No lint tool is part of the test run, so the unused-import rule is read
from the syntax tree here: a name that a module-level import binds must be
read somewhere in its module, unless the import's line says
``noqa: F401`` (a name kept so that callers, or the benchmark's tracer,
find it on the module).  ``__init__.py`` re-exports by design and is
exempt.  Likewise every private (``_name``) function, method, class and
module constant of the package must be read somewhere in the package, so a
refactor cannot leave a helper behind that only its tests still call.
And only ``errors.py`` catches the errors of a size that does not fit, so
every such refusal goes through its one rule, ``errors.fits``.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simulgain"


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports, by any import statement anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("simulgain")):
            module = (node.module or "").removeprefix("simulgain").strip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import metrics
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("simulgain."))
    return {name if (PACKAGE / f"{name}.py").exists() else "__init__" for name in found}


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("source, modules", [
    ("from .metrics import laal", {"metrics"}),
    ("def f():\n    if True:\n        from .metrics import laal\n", {"metrics"}),
    ("class C:\n    def f(self):\n        from . import streaming, synth\n", {"streaming", "synth"}),
    ("import simulgain.policy\nfrom simulgain.errors import setting", {"policy", "errors"}),
    ("from . import __version__", {"__init__"}),
    ("import json\nfrom numpy import asarray", set()),
])
def test_imports_are_found_at_any_depth(source, modules):
    assert package_imports(source) == modules


def test_package_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"streaming", "metrics", "cli"} <= set(graph)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")



def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import of ``source`` that the module never reads, except ``noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
             for alias in node.names if "noqa: F401" not in lines[alias.lineno - 1]]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("source, unused", [
    ("import numpy as np\nx = np.zeros(2)", []),
    ("import numpy as np\n", ["np"]),
    ("from __future__ import annotations\nimport os.path\nos.sep", []),
    ("from .policy import (\n    forward,\n    vector_to_params,\n)\nforward()", ["vector_to_params"]),
    ("from .losses import total_loss  # noqa: F401  (re-exported)\n", []),
    ("def f() -> Path:\n    from json import dumps\n", []),
    ("from typing import NamedTuple\nclass R(NamedTuple):\n    step: int\n", []),
])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> list[str]:
    """Private names a module defines: its functions, classes and constants, and its classes' methods.

    A private name starts with one underscore and is no dunder.
    """
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads: a loaded name or attribute, or a name imported from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private name defined in ``sources`` (module -> source) that none of them reads.

    Names are matched by spelling alone, so a method counts as read when any
    attribute of that name is, in any module.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items() for name in private_definitions(tree)
            if name not in read]


@pytest.mark.parametrize("sources, orphaned", [
    ({"m": "def _helper():\n    pass\n"}, ["m._helper"]),
    ({"m": "def _helper():\n    pass\nx = _helper()"}, []),
    ({"m": "_LIMIT = 3\n_SCALE: float = 2.0\nprint(_SCALE)"}, ["m._LIMIT"]),
    ({"m": "_A, _B = 1, 2\nprint(_B)"}, ["m._A"]),
    ({"m": "class _Base:\n    pass\nclass C(_Base):\n    pass\n"}, []),
    ({"m": "class C:\n    def _fill(self):\n        pass\n"}, ["m._fill"]),
    ({"m": "class C:\n    def _fill(self):\n        pass\n    def run(self):\n        self._fill()\n"}, []),
    ({"m": "class C:\n    def __init__(self):\n        self._cache = {}\n"}, []),  # dunders and attributes
    ({"a": "def _shared():\n    pass\n", "b": "from .a import _shared\n"}, []),
    ({"a": "class P:\n    def _score(self):\n        pass\n", "b": "def f(p):\n    return p._score()\n"}, []),
    ({"m": "def public():\n    def _local():\n        pass\n"}, []),  # a nested helper is its function's own
])
def test_orphaned_private_names_are_found(sources, orphaned):
    assert orphaned_private_names(sources) == orphaned


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert {"streaming", "synth", "training"} <= set(sources)
    assert orphaned_private_names(sources) == []


SIZE_ERRORS = {"MemoryError", "OverflowError", "ZeroDivisionError"}


def size_catches(source: str, name: str) -> list[str]:
    """``line: exception`` of each size error an ``except`` clause of ``source`` names, unless it is ``errors.py``.

    A size that does not fit is refused by the one rule, ``errors.fits``;
    a module that caught these itself would be a second copy of it.
    """
    if name == "errors.py":
        return []
    return [f"{node.lineno}: {caught}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for caught in sorted({getattr(part, "id", getattr(part, "attr", None)) for part in ast.walk(node.type)}
                                 & SIZE_ERRORS)]


@pytest.mark.parametrize("source, name, caught", [
    ("try:\n    pass\nexcept (ValueError, MemoryError) as exc:\n    pass\n", "synth.py", ["3: MemoryError"]),
    ("try:\n    pass\nexcept OverflowError:\n    pass\n", "synth.py", ["3: OverflowError"]),
    ("try:\n    pass\nexcept builtins.ZeroDivisionError:\n    pass\n", "cli.py", ["3: ZeroDivisionError"]),
    ("try:\n    pass\nexcept (MemoryError, OverflowError):\n    pass\n", "errors.py", []),
    ("try:\n    pass\nexcept ValueError:\n    pass\n", "synth.py", []),
    ("try:\n    pass\nexcept:\n    raise\n", "synth.py", []),
    ("x = MemoryError\n", "synth.py", []),
])
def test_size_catches_are_found(source, name, caught):
    assert size_catches(source, name) == caught


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_size_errors_are_caught_only_by_the_one_rule(path):
    assert size_catches(path.read_text(encoding="utf-8"), path.name) == []
