"""Test-session settings.

BLAS runs single-threaded, as the README promises, unless the environment
already says otherwise.  This module is imported before any test module, so
the settings are in place before numpy loads its BLAS library.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
