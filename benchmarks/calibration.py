"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed changes with other tenants'
load: an unchanged command can run 1.4-1.8x slower for seconds to minutes,
and that says nothing about the program.  Each timed command is therefore
bracketed by a fixed reference kernel that never calls ``mixedrv``; a
command's calibrated time is its wall time divided by the kernel's time next
to it, expressed in seconds at the speed where the kernel takes
``REFERENCE_SECONDS``.  A slow period stretches both and cancels; a faster
program shortens only the command.  The raw wall times stay in the run
record.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np
from scipy.special import digamma, gammaln, log_ndtr, logsumexp, ndtri

#: Time of one :func:`reference_kernel` call at the nominal host speed (the
#: kernel's typical time on a 2-vCPU x86-64 VM with CPython 3.11 and numpy 2.4).
#: Calibrated times are wall time * REFERENCE_SECONDS / kernel time.
REFERENCE_SECONDS = 0.005


class _Point:
    __slots__ = ("index", "value")

    def __init__(self, index, value):
        self.index = index
        self.value = value


def reference_kernel() -> float:
    """Fixed mix of the kinds of work that dominate the ``mixedrv`` commands:
    interpreter work (small objects, dicts, sorting), small-array numpy work
    (random draws, ufuncs, reductions), scipy special functions on a few
    thousand points, and tiny dense linear algebra."""
    table = {}
    acc = 0.0
    for i in range(4000):
        p = _Point(i, i * 0.5)
        table[i % 101] = p
        acc += p.value
    keys = sorted(str(i) for i in range(2000))
    rng = np.random.default_rng(12345)
    for _ in range(32):
        g = np.sort(rng.gamma(1.5, size=512))
        acc += float(np.log1p(g).sum() + np.cumsum(g)[-1] + np.exp(-g).max())
    u = (np.arange(2048) + 0.5) / 2048
    a = np.eye(6) * 4.0 + 0.1
    for j in range(2):
        args = ndtri(u)[:, None] - np.linspace(-1.0, 1.0, 4)[None, :]
        acc += float(logsumexp(log_ndtr(args).sum(axis=1)) + gammaln(u + j).sum() + digamma(u + 1.0).sum())
    for _ in range(4):
        x, _ = np.polynomial.legendre.leggauss(8)
        acc += float(np.linalg.solve(a, x[:6]).sum() + np.linalg.slogdet(a)[1])
    return acc + len(keys)


def reference_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel calls.

    The garbage collector is paused meanwhile, so that a collection over
    objects the measured program left alive is not charged to the kernel.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            reference_kernel()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
