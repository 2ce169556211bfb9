"""Test-session settings.

BLAS runs single-threaded, as the README promises, unless the environment
already says otherwise.  This module is imported before any test module, so
the settings are in place before numpy loads its BLAS library.

Every test that uses the ``pathology`` fixture is marked ``slow``: that
fixture trains and sweeps the acceptance heads, most of a full run's time,
so ``pytest -m "not slow"`` gives a fast loop over everything else.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "pathology" in getattr(item, "fixturenames", ()):
            item.add_marker("slow")
