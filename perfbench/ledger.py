"""Operation accounting and output checks.

Every timed call goes through :meth:`Ledger.attempt`: it counts the
operation, times it, checks its output, and records a failure (an exception
or a wrong output) without aborting the run.  Only operations that passed
their check contribute samples to the metrics.
"""
from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict

import numpy as np


class Ledger:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def attempt(self, label: str, fn, check):
        """Run ``fn()``, time it and test ``check(result)``.

        Returns ``(result, seconds)`` when the check passed, ``None`` when the
        call raised or the check failed; either way the operation counts as
        attempted, and a failure as failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the run keeps going; the failure is counted
            self._fail(label, f"{type(exc).__name__}: {exc}", exc)
            return None
        seconds = time.perf_counter() - t0
        try:
            ok = bool(check(result))
        except Exception as exc:  # a check that raises is a failed check
            self._fail(label, f"check raised {type(exc).__name__}: {exc}", exc)
            return None
        if not ok:
            self._fail(label, "wrong output", None)
            return None
        return result, seconds

    def record(self, label: str, ok: bool) -> None:
        """Count an operation whose output was checked elsewhere."""
        self.attempted += 1
        if not ok:
            self._fail(label, "wrong output", None)

    def add(self, metric: str, value: float) -> None:
        self.samples[metric].append(float(value))

    def _fail(self, label: str, why: str, exc: BaseException | None) -> None:
        self.failed += 1
        first = self.failures[label] == 0
        self.failures[label] += 1
        if first:  # report each kind of failure once, on stderr
            print(f"[perfbench] {label} failed: {why}", file=sys.stderr)
            if exc is not None and not isinstance(exc, ValueError):
                traceback.print_exception(exc, file=sys.stderr)


# -- checks against the generated input --------------------------------------

def same_values(expected: np.ndarray):
    """Check: the output equals ``expected`` exactly, element for element."""
    expected = np.asarray(expected, dtype=np.int64)

    def check(got) -> bool:
        got = np.asarray(got)
        return got.shape == expected.shape and bool(np.array_equal(got.astype(np.int64), expected))

    return check


#: float64 evaluation of a fitted function can land a few ulps past the
#: bound; tests/test_lossy.py allows the same slack
EPS_SLACK = 1e-6


def within_eps(expected: np.ndarray, eps: int):
    """Check: a lossy reconstruction is within ``eps`` of every input value."""
    expected = np.asarray(expected, dtype=np.float64)

    def check(lossy) -> bool:
        approx = np.asarray(lossy.approximate(), dtype=np.float64)
        err = float(np.max(np.abs(approx - expected)))
        return approx.shape == expected.shape and err <= eps + EPS_SLACK

    return check


def same_rows(expected: np.ndarray, idx: np.ndarray):
    """Check: a ``(idx, y)`` frame holds exactly the rows ``idx`` (no missing,
    no extra, no duplicate) with ``y == expected[idx]``."""
    want_idx = np.unique(np.asarray(idx, dtype=np.int64))
    want_y = np.asarray(expected, dtype=np.int64)[want_idx]

    def check(pdf) -> bool:
        got = pdf.sort_values("idx")
        got_idx = got["idx"].to_numpy(dtype=np.int64)
        got_y = got["y"].to_numpy(dtype=np.int64)
        return bool(np.array_equal(got_idx, want_idx) and np.array_equal(got_y, want_y))

    return check
