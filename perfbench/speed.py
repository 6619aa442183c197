"""The machine's speed during a run, from a fixed reference loop.

On a shared host the CPU a run gets changes with its neighbours' load: the
same run, minutes apart, came out up to 1.8x slower on every operation
alike, Python, numpy and Spark.  The benchmark therefore times a fixed loop
of pure-Python and numpy work, which does not depend on the program, between
the program's steps, and reports each end-to-end timing as it would read on
a machine where that loop takes ``REFERENCE_S``.  The wall-clock figures are
kept in ``result.json`` (``end_to_end_raw``) beside the factors used.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

REFERENCE_S = 2.0e-3  # the loop's median time on the machine the benchmark was tuned on


def reference() -> int:
    x = 0
    for i in range(20000):
        x += (i * 7) % 13
    a = np.arange(20000, dtype=np.float64)
    return x + int(np.floor(np.sqrt(a) * 1.5).astype(np.int64).sum())


class Speed:
    """Reference-loop timings, kept per phase of the run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)

    def sample(self, phase: str) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples[phase].append(time.perf_counter() - t0)

    def factor(self, phase: str) -> float:
        """``REFERENCE_S`` over the phase's median loop time: below 1 while
        the machine runs slower than the reference."""
        return REFERENCE_S / statistics.median(self.samples[phase])
