"""Host-speed probes, so that times measured on a shared machine compare.

On a machine shared with other tenants the same computation can take twice as
long from one minute to the next. A probe is a fixed computation that no
change to the program can touch; timing it next to the ops tells how fast the
host ran at that moment. ``scale`` turns a probe time into a factor that
restates an op's wall time at reference speed: the speed at which the probe
takes its ``REFERENCE_S``.

The ``fraction`` probe does exact rational elimination, the kind of
interpreter work the search, closed forms and CLI do. The ``numpy`` probe
draws, compares and tabulates arrays, the kind of work the simulator does.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REPEATS = 3  # a probe's time is the median of this many runs


def _fraction_work() -> None:
    n = 7
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]


def _numpy_work() -> None:
    import numpy as np

    u = np.random.default_rng(0).random((100_000, 7))
    high = u[:, 1] < 0.3
    p_a = np.where(high, 0.8, 0.2)
    scores = u[:, 2:5] < p_a[:, None]
    keys = high.astype(np.int64) * 8 + scores @ np.array([4, 2, 1])
    np.unique(keys, return_counts=True)


PROBES = {"fraction": _fraction_work, "numpy": _numpy_work}
REFERENCE_S = {"fraction": 0.002, "numpy": 0.01}
EVERY_S = 0.5  # probe again before the first op that starts this long after the last probe


def scale(kind: str, probe_s: float) -> float:
    """Factor that restates a time measured next to a probe at reference speed."""
    return REFERENCE_S[kind] / probe_s


class Pace:
    """Probe times of one run, each stamped with when it was taken."""

    def __init__(self, kind: str):
        self.kind = kind
        self.work = PROBES[kind]
        self.at: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> float:
        """Time the probe with the collector paused, so the program's heap
        does not change what it measures."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                self.work()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.at.append(time.perf_counter())
        self.seconds.append(statistics.median(times))
        return self.seconds[-1]

    def scales(self, starts: list[float]) -> list[float]:
        """Per op, the scale from the probes taken just before and after it."""
        out = []
        j = 0
        for start in starts:
            while j + 1 < len(self.at) and self.at[j + 1] <= start:
                j += 1
            after = min(j + 1, len(self.at) - 1)
            out.append(scale(self.kind, (self.seconds[j] + self.seconds[after]) / 2))
        return out
