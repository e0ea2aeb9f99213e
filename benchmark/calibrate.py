"""A fixed calibration kernel that measures how fast the host runs now.

The host's speed drifts: it runs fast or slow for seconds to minutes at a
time, and a decomposition of a few milliseconds lands wholly in one such
stretch.  So ``run.py`` runs this kernel between the decompositions of a
report and scales their mean wall time by ``REFERENCE_S / mean kernel
time``: seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel mixes the kinds of work a decomposition does (interpreted
Python over dicts, tuples and sets, small numpy arithmetic and one small
HiGHS LP), plus gathers from an array larger than the caches.  It does
not import ``auditgames``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.optimize import linprog

# The kernel's median time on the 2-core VM described in README.md when
# its host is busy; it takes about half that when the host is quiet.
REFERENCE_S = 0.025

_rng = np.random.default_rng(12345)
_A = _rng.random((40, 120))
_c = -_rng.random(120)
_M = _rng.random((60, 60))
_big = _rng.random(1 << 20)                    # 8 MB
_gather = _rng.integers(0, 1 << 20, 1 << 17)


def kernel() -> float:
    table = {}
    acc = 0.0
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.5
    seen = set()
    for i in range(6000):
        seen.add(frozenset((i % 31, i % 17, i % 5, i)))
    v = _M
    for _ in range(200):
        v = np.maximum(v @ _M[:, :1] * 0.01, 0.0) + _M
    acc += float(_big[_gather].sum())
    linprog(_c, A_ub=_A, b_ub=np.ones(40), bounds=(0, 1), method="highs")
    return acc + len(seen) + len(table)


def burst(count: int) -> list:
    """Wall seconds of ``count`` kernel runs.

    The cyclic garbage collector is off while the kernel runs: otherwise a
    run now and then pays for a collection over whatever heap the program
    left behind, which has nothing to do with host speed."""
    times = []
    for _ in range(count):
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return times
