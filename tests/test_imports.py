"""The package's modules import one another without a cycle, and import nothing they do not use.

Every import of a package module counts, at any depth: an import inside a
function runs later than one at the top of the module, but a cycle it
closes is still a cycle, and deferring the import only hides it.

No lint tool is part of the test run, so the unused-import rule is read
from the syntax tree here: a name that a module-level import binds must be
read somewhere in its module, unless the import's line says
``noqa: F401`` (a name kept so that callers, or the benchmark's tracer,
find it on the module).  ``__init__.py`` re-exports by design and is
exempt.
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
