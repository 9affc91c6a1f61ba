"""Calibrated time: wall time rescaled by the host speed measured next to it.

On a shared machine the same code runs up to 2x slower for seconds to minutes
at a time, because other tenants share the cores and caches. Taking the best
of repeats does not remove this: some 30-second runs never see a fast moment.
So every interval the benchmark reports is bracketed by runs of a fixed probe
(float arithmetic over preallocated tuples plus small numpy products, a mix
like the tracker's own, allocating nothing the garbage collector tracks), and
is rescaled to the probe's reference time:

    calibrated = wall * REF_SECONDS / mean(probe before, probe after)

The probe belongs to the benchmark, not to the program, so a change to the
program moves calibrated time exactly as much as wall time, while a slowdown
of the host slows the probe as well and cancels out. On two crowd workloads
this cut the pass-to-pass spread of tracking time from 7-18% to about 2%.
``REF_SECONDS`` is the probe's median on the machine the benchmark was written
on (2 shared vCPUs at 2.1 GHz, Python 3.11, numpy 2.4), so calibrated times
read close to wall time there; the info line records the probe times seen.
"""

import statistics
import time

import numpy as np

REF_SECONDS = 0.4e-3

_BOXES = [(i * 1.5, i * 0.5, 10.0 + i % 7, 20.0 + i % 5) for i in range(64)]
_A = np.linspace(0.0, 1.0, 32 * 64).reshape(32, 64)
_B = _A[:16].copy()


def _probe() -> float:
    s = 0.0
    for ax, ay, aw, ah in _BOXES[:24]:
        for bx, by, bw, bh in _BOXES[::4]:
            ix = min(ax + aw, bx + bw) - max(ax, bx)
            iy = min(ay + ah, by + bh) - max(ay, by)
            if ix > 0 and iy > 0:
                s += ix * iy / (aw * ah + bw * bh - ix * iy)
    for k in range(12):
        m = _A @ _B.T
        s += float(np.max(np.minimum(m, 0.5))) + float(np.sqrt(np.sum(_A[k] * _A[k])))
    return s


class Clock:
    """Runs the probe and keeps every probe time, for the info line."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self, repeats: int = 1) -> float:
        """Seconds one probe run takes now: the median of ``repeats`` runs."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _probe()
            times.append(time.perf_counter() - t0)
        self.probes.extend(times)
        return statistics.median(times)

    def interval(self, fn, *args):
        """Call ``fn``; return its result and calibrated seconds.

        Only the call's edges are probed, so changes of speed within a long
        call (an evaluation, a set-up) are not removed, only slower drifts.
        """
        before = self.probe(3)
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, calibrate([wall], [before, self.probe(3)])[0]

    def summary(self) -> dict:
        return {"ref_ms": REF_SECONDS * 1e3, "runs": len(self.probes),
                "median_ms": statistics.median(self.probes) * 1e3 if self.probes else None,
                "min_ms": min(self.probes) * 1e3 if self.probes else None}


def calibrate(intervals: list[float], probes: list[float]) -> list[float]:
    """Rescale ``intervals[i]``, which lies between ``probes[i]`` and ``probes[i + 1]``."""
    return [wall * 2 * REF_SECONDS / (probes[i] + probes[i + 1])
            for i, wall in enumerate(intervals)]
