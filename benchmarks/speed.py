"""Fixed reference kernels that track how fast this CPU runs right now.

On a shared machine the speed of one core drifts by a third or more over
minutes, because other tenants load the same physical cores, and CPU time
drifts with wall time. Raw timings then say more about the neighbours than
about the code. The benchmark samples the kernels between slices of each
pass and scales the slice's time by their speed, so a reported second is a
second on a core where the kernels take their nominal times.

The kernels use only numpy and the standard library, never the package, so
a change to cablehaptics cannot move them. One is a tight loop of
small-array numpy calls; the other mimics the package's mix (a frozen
dataclass, a structure matrix and pseudoinverse, a few projection sweeps,
a per-cable Python loop). The scale is the geometric mean of their two
speed ratios, which tracks the workloads better than either alone.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

NOMINAL_S = (0.0042, 0.0045)  # one run of each kernel on the reference core
REPEATS = 3


@dataclass(frozen=True)
class _State:
    position: np.ndarray
    time: float


class ReferenceClock:
    """Samples the reference kernels and turns samples into scale factors."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.normal(size=(3, 4))
        self._v = rng.normal(size=4)
        self._target = rng.normal(size=3)
        self._anchors = rng.normal(size=(8, 3)) * 2.0
        self._lo = np.full(8, 0.5)
        self._hi = np.full(8, 6.0)

    def _numpy_loop(self) -> float:
        m, target = self._m, self._target
        x = self._v.copy()
        total = 0.0
        for _ in range(300):
            x = np.clip(x - m.T @ (m @ x - target) * 0.1, -1.0, 1.0)
            total += float(np.max(np.abs(x)))
        return total

    def _package_like(self) -> float:
        lo, hi = self._lo, self._hi
        total = 0.0
        for i in range(25):
            state = _State(np.array([0.01 * i, 0.2, 0.3]), 0.001 * i)
            offsets = self._anchors - state.position
            A = (offsets / np.linalg.norm(offsets, axis=1)[:, None]).T
            op = A.T @ np.linalg.pinv(A @ A.T)
            x = lo.copy()
            correction = np.zeros(8)
            for _ in range(8):
                shifted = x - op @ (A @ x - self._target) + correction
                x_new = np.clip(shifted, lo, hi)
                correction = shifted - x_new
                total += float(np.max(np.abs(x_new - x)))
                x = x_new
            total += sum(max(t, 0.5) / 3.0 for t in x.tolist())
        return total

    def sample(self) -> tuple[float, float]:
        """Median seconds of a few runs of each kernel."""
        times = []
        for kernel in (self._numpy_loop, self._package_like):
            runs = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                kernel()
                runs.append(perf_counter() - t0)
            times.append(statistics.median(runs))
        return times[0], times[1]

    @staticmethod
    def factor(before: tuple[float, float], after: tuple[float, float]) -> float:
        """Scale for times measured between two samples."""
        ratios = [
            nominal / ((b + a) / 2.0) for nominal, b, a in zip(NOMINAL_S, before, after)
        ]
        return math.sqrt(ratios[0] * ratios[1])


class SliceTimer:
    """Times one pass in slices of about SLICE_S, sampling the reference
    kernel between slices, outside the timed part.

    Each slice's time is scaled by the factor from the samples at its two
    ends, so the scale follows the CPU's speed within a pass.
    ``checkpoint()`` is called between operations; it closes the slice once
    SLICE_S has gone by. ``count()`` gives the number of ticks recorded so
    far, so each tick can be given the factor of the slice it fell in.
    """

    SLICE_S = 0.4

    def __init__(self, clock: ReferenceClock, count):
        self.clock = clock
        self.count = count
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.marks: list[tuple[int, float]] = []  # (ticks so far, factor)
        self._before = clock.sample()
        self._t0 = perf_counter()

    def checkpoint(self) -> None:
        now = perf_counter()
        if now - self._t0 >= self.SLICE_S:
            self._close(now)

    def stop(self) -> None:
        self._close(perf_counter())

    def _close(self, now: float) -> None:
        elapsed = now - self._t0
        after = self.clock.sample()
        factor = self.clock.factor(self._before, after)
        self.raw_s += elapsed
        self.scaled_s += elapsed * factor
        self.marks.append((self.count(), factor))
        self._before = after
        self._t0 = perf_counter()

    def tick_factors(self, first_tick: int) -> np.ndarray:
        """Factor of every tick recorded since ``first_tick``."""
        factors = []
        start = first_tick
        for end, factor in self.marks:
            factors += [factor] * (end - start)
            start = end
        return np.array(factors)
