"""The benchmark's traced run finds every function it wraps.

``perfbench/layers.py`` wraps each traced call site by replacing
``vars(owner)[attr]``.  A function that is deleted, renamed or no longer
imported into its caller's module would make ``--trace 1`` fail, so every
entry of ``call_sites`` must resolve that way on the package.  The other way
round, an import kept only for a span to wrap (``noqa: F401``) must still be
a call site, or it is dead code.
"""

import ast
import importlib
import sys
from pathlib import Path

import simulgain
import simulgain.cli  # noqa: F401  (call_sites reads simulgain.cli)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402


def test_every_call_site_resolves_on_its_owner():
    sites = layers.call_sites(simulgain)
    assert sites
    for name, owner, attr, _ in sites:
        assert attr in vars(owner), f"{name}: {owner!r} has no attribute {attr!r} of its own"
        assert callable(vars(owner)[attr]), f"{name}: {owner!r}.{attr} is not callable"


def test_every_kept_import_is_a_call_site():
    sites = {(owner, attr) for _, owner, attr, _ in layers.call_sites(simulgain)}
    stale = []
    for path in sorted(Path(simulgain.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"simulgain.{path.stem}")
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        stale += [f"{path.stem}.{alias.asname or alias.name}"
                  for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
                  for alias in node.names if "noqa: F401" in lines[alias.lineno - 1]
                  and (module, alias.asname or alias.name) not in sites]
    assert not stale, f"imported only for a span that no call site names: {stale}"
