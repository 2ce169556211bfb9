"""The package's modules import one another without a cycle.

Every import of a package module counts, at any depth: an import inside a
function runs later than one at the top of the module, but a cycle it
closes is still a cycle, and deferring the import only hides it.
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

