"""A fixed pure-Python reference load, timed next to each operation to read the machine's speed.

The machine this benchmark was built on runs the same Python code up to 1.6x
slower or faster from one ten-second stretch to the next, with its own CPUs
otherwise idle, so raw wall times of two runs are not comparable.  Every
end-to-end time is therefore reported at reference speed:

    scaled = measured * REFERENCE_S / (mean of the reference timings just before and after)

The reference touches nothing in modpairs, so a change to the program moves
the scaled time exactly as it moves the raw one on a machine of steady speed.
Operations that run in a child process (a CLI call, a fresh ``import
modpairs``) are scaled by a bare interpreter start instead, which tracks their
exec, page-fault and memory costs better; ``run.py`` supplies that reference.
"""

from __future__ import annotations

import gc
import time

# A typical wall time of ``reference()`` on the machine the bounds were set on
# (Python 3.11.7, 2 vCPUs); scaled times read as milliseconds at that speed.
REFERENCE_S = 0.0036


def reference():
    """Interpreter-bound work of a fixed size: dict updates, int-to-str, sorting."""
    counts = {}
    width = 0
    for i in range(6000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + 1
        width += len(str(key))
    return width, sorted(counts.items())[:3]


def reference_s() -> float:
    """Seconds one ``reference()`` takes, with the collector paused so the
    caller's heap (the program's objects) cannot add to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Bracketed:
    """Times operations with a reference run between each two, and scales them.

    ``reference`` returns the seconds one reference run took and ``nominal``
    is its typical value; the defaults are the pure-Python load above.
    """

    def __init__(self, reference=reference_s, nominal=REFERENCE_S):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._reference, self._nominal = reference, nominal
        for _ in range(4):  # the first runs after an idle spell read slow while the core speeds up
            self._before = reference()

    def add(self, seconds: float):
        after = self._reference()
        self.raw.append(seconds)
        self.scaled.append(seconds * self._nominal / ((self._before + after) / 2))
        self._before = after
