"""Pass time rescaled to a nominal machine speed.

On a shared host the same code can run 1.8 times slower at times (the
host, not the benchmark, is busy); the speed switches within a second as
well as over minutes, so no statistic over the passes of one run averages
it out. Code slows together with a small fixed kernel of the same kind, so
the benchmark times such a kernel while the work runs and rescales the
work's time to the speed at which the kernel takes its nominal time.

The kernel is read only at points the benchmark chooses, never at points
the package's own calls decide: before a pass's first step and after each
step, where a step is one call the benchmark makes into the package (one
`run_grid` with its figure writers, one CLI command, one sweep pass), and,
for interpreter-bound work, on a wall-clock timer in between (a signal
handler that runs between bytecodes of the main thread). The time between
two readings is rescaled by their mean. How the package divides its work
does not change where or how often the kernel is read. The kernels' own
time is not part of the pass. README.md gives the measurements behind this.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Callable

import numpy as np

_KERNEL_ITERATIONS = 1_300
NOMINAL_KERNEL_S = 0.0003  # the kernel's time on the unloaded development machine
NOMINAL_NUMPY_KERNEL_S = 0.025  # the numpy kernel's, likewise
_NUMPY_SIZE = 32_760  # starts per angle in the exhaustive sweep


def reference_kernel() -> float:
    """Interpreter-bound work of a fixed size: calls, float math, small tuples."""
    acc = 0.0
    items = []
    for i in range(_KERNEL_ITERATIONS):
        x = math.hypot(i * 0.5, 3.0) + (i % 7) * 1.5
        items.append((x, i))
        if len(items) > 64:
            items.clear()
        acc += x
    return acc


def kernel_seconds() -> float:
    """Median of three timed kernels."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def numpy_kernel_seconds() -> float:
    """Median of seven timed numpy kernels shaped like one sweep step:
    hypot, fancy indexing, masked update, table lookup."""
    rng = np.random.default_rng(0)
    x, y = rng.random(_NUMPY_SIZE) * 100.0, rng.random(_NUMPY_SIZE) * 100.0
    index = rng.integers(0, _NUMPY_SIZE, _NUMPY_SIZE)
    heading = rng.integers(0, 360, _NUMPY_SIZE)
    cosines = np.cos(np.radians(np.arange(360)))
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(20):
            far = np.hypot(x - x[index], y - y[index]) > 50.0
            turned = heading.copy()
            turned[far] = (turned[far] + 137) % 360
            x + cosines[turned]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Times steps in seconds and in rescaled seconds.

    `numpy_work` picks the numpy kernel (for the sweeps), read at step
    boundaries only, since one reading takes about 0.2 s. Otherwise the
    pure-Python kernel, which tracks the interpreter-bound cycle loop,
    imports and config building, is read at step boundaries and, when
    `interval_s` is given, every `interval_s` seconds of wall time.
    """

    def __init__(self, numpy_work: bool = False, interval_s: float | None = None) -> None:
        self._kernel = numpy_kernel_seconds if numpy_work else kernel_seconds
        self._nominal = NOMINAL_NUMPY_KERNEL_S if numpy_work else NOMINAL_KERNEL_S
        self._interval_s = None if numpy_work else interval_s
        self._busy = False
        self._mark = math.nan
        self.readings: list[float] = []
        self.stretch_seconds: list[float] = []  # work time between consecutive readings
        self.stretch_slowdowns: list[float] = []  # 2.0: it ran at half the nominal speed
        self.steps: list[tuple[float, float]] = []  # (seconds, rescaled seconds) of each step

    @property
    def seconds(self) -> float:
        return sum(self.stretch_seconds)

    @property
    def adjusted_s(self) -> float:
        return sum(s / v for s, v in zip(self.stretch_seconds, self.stretch_slowdowns))

    def time_steps(self, steps: list[Callable[[], object]]) -> list[object]:
        """Run the steps in order, reading the kernel before the first, after
        each and on the timer; return their results."""
        results = []
        previous = None
        if self._interval_s:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)
        try:
            self._read()
            for step in steps:
                seconds, adjusted_s = self.seconds, self.adjusted_s
                results.append(step())
                self._read()
                self.steps.append((self.seconds - seconds, self.adjusted_s - adjusted_s))
        finally:
            if self._interval_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        return results

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # a step-boundary reading is under way
            self._read()

    def _read(self) -> None:
        """Close the stretch since the last reading, then read the kernel."""
        self._busy = True
        end = time.perf_counter()
        reading = self._kernel()
        if self.readings:
            self.stretch_seconds.append(end - self._mark)
            self.stretch_slowdowns.append((self.readings[-1] + reading) / 2.0 / self._nominal)
        self.readings.append(reading)
        self._mark = time.perf_counter()
        self._busy = False
