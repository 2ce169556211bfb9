"""The benchmark's traced run finds every function it wraps.

``perfbench/layers.py`` wraps each traced call site by replacing
``vars(owner)[attr]``.  A function that is deleted, renamed or no longer
imported into its caller's module would make ``--trace 1`` fail, so every
entry of ``call_sites`` must resolve that way on the package.
"""

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
