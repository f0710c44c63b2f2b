"""Timings scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same command can take half again as long for minutes at a time, and its
speed swings by a quarter from one second to the next.  Taking medians
within a run removes the swings but not the drift, so two runs of the same
code minutes apart still differ by more than a regression bound.

So every timing is made against a reference: a fixed unit of work that
does not touch votelab runs before each timed interval and once after the
last.  An interval's time is scaled by the unit's nominal time over the
median time of the reference runs nearest to it, which gives its seconds at
the speed at which the unit takes its nominal time.  A change to votelab
changes the intervals and not the reference, so it shows in the scaled
times in full.

Commands are timed against ``compute_unit``.  A set-up in a fresh
interpreter is mostly imports, whose time follows that of other imports and
not that of computing, so set-ups are timed against ``import_unit``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# The units' nominal times, in seconds: about their medians on a 2-core
# virtual machine with numpy 2.4.6.
COMPUTE_S = 0.02
IMPORT_S = 0.1
# Reference runs taken into an interval's median on each side, besides the
# two right before and after it.  One run is too short to stand for the
# speed during a command of several seconds; a few on each side are not.
WINDOW = 2


def compute_unit() -> float:
    """Seconds taken by an interpreted loop and a few passes over an int64
    array, the two kinds of work votelab's commands are made of."""
    import numpy as np  # imported here so that importing this module leaves it to votelab

    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    a = np.arange(1 << 18, dtype=np.int64)
    for _ in range(4):
        a = (a * 5 + 3) % 1_000_003
    total += int(a.sum())
    return time.perf_counter() - t0


IMPORT_CODE = "import time; t0 = time.perf_counter(); import numpy; print(time.perf_counter() - t0)"


def import_unit() -> float:
    """Seconds taken by ``import numpy`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class HostClock:
    """Runs of one reference unit and the intervals timed between them, in order."""

    def __init__(self, unit=compute_unit, nominal_s: float = COMPUTE_S):
        self.unit = unit
        self.nominal_s = nominal_s
        self.refs: list[float] = []
        self.intervals: list[tuple[object, float, int]] = []  # (label, seconds, refs before it)
        unit()  # warm-up, not recorded

    def reference(self) -> None:
        """Run the reference unit; call it right before each interval."""
        self.refs.append(self.unit())

    def record(self, label, seconds: float) -> None:
        """Record an interval timed since the last reference run."""
        self.intervals.append((label, seconds, len(self.refs)))

    def scaled(self) -> list[tuple[object, float]]:
        """Every interval's (label, scaled seconds), in order."""
        if self.intervals and self.intervals[-1][2] == len(self.refs):
            self.reference()  # the run after the last interval
        out = []
        for label, seconds, before in self.intervals:
            nearest = self.refs[max(0, before - 1 - WINDOW): before + 1 + WINDOW]
            out.append((label, seconds * self.nominal_s / statistics.median(nearest)))
        return out
