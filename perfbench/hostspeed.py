"""How fast the host runs right now, from a fixed kernel timed between operations.

On a shared host another tenant's load slows the whole benchmark process for
tens of seconds at a time, by up to about 1.5x, so the same code on the same
inputs gives timings that differ by that much from one run to the next.  The
kernel below does the kind of work simulgain does (small-vector numpy
arithmetic behind Python calls, a 256x64 by 64x64 product) and does not
depend on the package, so a change to simulgain cannot move it.  ``run.py``
scales every timing of a run by ``NOMINAL_S / measured``: the timings then
read as on the reference host, whose kernel time is ``NOMINAL_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fastest kernel call on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
# numpy 2 with OpenBLAS pinned to one thread) in a quiet period.
NOMINAL_S = 0.43e-3
BURST = 40

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64))
_X = _rng.standard_normal(64)
_B = _rng.standard_normal((256, 64))


def kernel() -> int:
    hits = 0
    for _ in range(50):
        f = np.concatenate((_X[:32] * 0.5, np.log1p(np.abs(_X[32:]))))
        h = np.tanh(_W @ f)
        hits += float(h.sum()) > 0.0
        table = {j: j * j for j in range(10)}
        hits += table[3] == 9
    for _ in range(2):
        _B @ _W
    return hits


def burst(calls: int = BURST) -> float:
    """Seconds of the fastest of ``calls`` kernel calls."""
    best = float("inf")
    for _ in range(calls):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best
