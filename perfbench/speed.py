"""Machine-speed probe that puts wall times on a common scale.

On a shared host the same job's wall time drifts by a third or more over
tens of seconds as neighbours load the machine.  Between jobs, at most
every ``EVERY_S``, the benchmark times a fixed probe task that shares no
code with ``holonomy_lab``: a Python-level chain of small complex matrix
products, a batched ``eigh``, a batched QR and a small integer
enumeration, the same kinds of work the jobs do.  A job's wall time is
divided by the typical probe time within ``WINDOW_S`` of the job and
multiplied by ``REFERENCE_S``, the probe's time on a quiet machine, so it
reads as milliseconds at that reference speed.  A job lasting many probe
lengths is slowed by the average slowdown over its run, so "typical" is
a mean, trimmed by ``TRIM`` at both ends so that one preempted probe does
not rescale every job around it.  Raw wall times are kept next to the
scaled ones.
"""

from __future__ import annotations

import bisect
import itertools
import time

import numpy as np

REFERENCE_S = 2.5e-3   # probe time on an idle 2-CPU x86-64 machine, Python 3.11, OpenBLAS 0.3.31
EVERY_S = 0.1
WINDOW_S = 2.0
TRIM = 0.1

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((300, 2, 2)) + 1j * _rng.standard_normal((300, 2, 2))
_HERM = _SMALL[:256] + np.conj(np.swapaxes(_SMALL[:256], -1, -2))
_BATCH = _rng.standard_normal((512, 3, 3)) + 0j


def probe():
    """Seconds taken by the fixed probe task."""
    t0 = time.perf_counter()
    acc = np.eye(2, dtype=complex)
    for m in _SMALL:
        acc = m @ acc
        acc /= abs(acc[0, 0]) + 1.0
    np.linalg.eigh(_HERM)
    np.linalg.qr(_BATCH)
    n = 0
    for m in itertools.product(range(-3, 4), repeat=4):
        n += sum(abs(c) for c in m) <= 3
    return time.perf_counter() - t0


def typical(took):
    """Mean of probe times with the top and bottom ``TRIM`` share left out."""
    vals = sorted(took)
    k = int(len(vals) * TRIM)
    kept = vals[k:len(vals) - k] or vals
    return sum(kept) / len(kept)


class SpeedLog:
    """Probe times with the moment each was taken."""

    def __init__(self):
        self.at = []
        self.took = []

    def probe(self, count=1):
        for _ in range(count):
            took = probe()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def maybe_probe(self):
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, seconds, at):
        """``seconds`` measured around time ``at``, at the reference speed."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        return seconds * REFERENCE_S / typical(self.took[lo:hi] or self.took)
