"""Wall time scaled by the machine speed seen around it.

The benchmark shares its CPUs with other tenants, whose load changes the
speed of this process by up to about 2x over tens of seconds.  A wall-clock
median cannot average that out within one run.  So the timed part of a pass
is cut into segments at calibration marks.  At each mark a fixed kernel is
timed, and its time is kept out of every segment.  The kernel is an
interpreter loop, dict lookups over a 60k-entry dict and numpy elementwise
passes over a 4 MB array; together they track both the pure-Python and the
numpy workloads.  A segment's calibrated time is its wall time times
KERNEL_REF_S / (median kernel time of the nearest marks).  That is the time
the segment would have taken with the kernel running at KERNEL_REF_S.  A change
to the program cannot change the kernel, so it cannot game the scale.
"""

from __future__ import annotations

import statistics
import time

# Time of the kernel on an idle 2-vCPU Xeon sandbox; it only fixes the unit.
KERNEL_REF_S = 0.0100
_DATA: dict = {}


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel (numpy must be importable)."""
    import numpy as np

    if not _DATA:
        _DATA["table"] = {i * 7919 % 1_000_003: i for i in range(60_000)}
        _DATA["keys"] = list(_DATA["table"])[::3]
        _DATA["array"] = np.random.default_rng(0).random(500_000)
        _DATA["out"] = np.empty(500_000)
    table, keys, array, out = _DATA["table"], _DATA["keys"], _DATA["array"], _DATA["out"]
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    for key in keys:
        acc += table[key]
    for _ in range(3):  # in place: no allocation, so the program's heap state does not matter
        np.multiply(array, array, out=out)
        np.add(out, 1.0, out=out)
        np.sqrt(out, out=out)
        out.sum()
    return time.perf_counter() - start


class SpeedClock:
    """Phase-tagged segments between calibration marks.

    `mark(phase)` closes the running segment as part of `phase`, times the
    kernel, and starts the next segment.  `excluded` returns seconds of
    benchmark-added work (tracing probes) to leave out of the segments, and
    `on_kernel(seconds)` is told the time of each kernel run inside a mark.
    """

    def __init__(self, excluded=lambda: 0.0):
        self.excluded = excluded
        self.on_kernel = lambda seconds: None
        self.segments: list = []  # (phase, wall_s, kernel_s before, kernel_s after)
        self._kernel = None  # numpy is not imported yet: the first segment
        self._excluded = excluded()  # is scaled by the kernel at its end
        self._start = time.perf_counter()

    def mark(self, phase: str) -> None:
        end = time.perf_counter()
        excluded = self.excluded()
        wall = end - self._start - (excluded - self._excluded)
        kernel = kernel_s()
        self.on_kernel(time.perf_counter() - end)
        self.segments.append((phase, wall, self._kernel or kernel, kernel))
        self._kernel = kernel
        self._excluded = excluded
        self._start = time.perf_counter()

    def since_mark(self) -> float:
        return time.perf_counter() - self._start

    def wall_s(self, phase: str) -> float:
        return sum(w for p, w, _, _ in self.segments if p == phase)

    def calibrated_s(self, phase: str) -> float:
        """Sum of the phase's segments, each scaled by the median kernel time
        of the four marks nearest to it, so one disturbed kernel run does
        not skew its segment."""
        samples = self.kernel_samples()
        total = 0.0
        for i, (p, wall, _, _) in enumerate(self.segments):
            if p == phase:
                total += wall * KERNEL_REF_S / statistics.median(samples[max(0, i - 1): i + 3])
        return total

    def kernel_samples(self) -> list:
        return [self.segments[0][2]] + [b for _, _, _, b in self.segments] if self.segments else []
