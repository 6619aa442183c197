"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench/test_smoke.py -q``.

Runs every workload at a tiny size through the command line (traced, so the
per-layer metrics and the end-to-end metrics are both computed), and shows
that the output checks count a failure when handed one wrong value.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spec  # noqa: E402
from ledger import Ledger, same_rows, same_values, within_eps  # noqa: E402


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_workload_runs_at_tiny_size(workload):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # only the full-int64 series fails, once per ingest round
    assert result["failed"] == (1 if workload == "ingest" else 0)
    assert set(result["metrics"]) == {m.name for m in spec.PER_LAYER}
    for name, m in result["metrics"].items():
        assert m["unit"] == spec.UNITS[name], name
        # a difference of two timings; it reads below 0 when noise beats the gap
        assert m["value"] > 0 or name == "partition.sweep_s", name
    detail_dir = os.path.join(ROOT, ".bench_out", f"{workload}-seed3-trace1-tiny")
    with open(os.path.join(detail_dir, "result.json")) as fh:
        detail = json.load(fh)
    assert set(detail["end_to_end"]) == {m.name for m in spec.END_TO_END}
    assert all(v > 0 for v in detail["end_to_end"].values())
    with open(os.path.join(detail_dir, "spans.json")) as fh:
        spans = json.load(fh)
    assert spans["spans"] and set(spans["spans"][0]) >= {"name", "start", "end", "parent", "run_id"}


def test_checks_count_one_wrong_value():
    ys = np.arange(100, dtype=np.int64) * 7
    bad = ys.copy()
    bad[37] += 1
    led = Ledger()
    assert led.attempt("good", lambda: ys.copy(), same_values(ys)) is not None
    assert led.attempt("bad", lambda: bad, same_values(ys)) is None
    assert (led.attempted, led.failed) == (2, 1)

    idx = np.array([3, 50, 99])
    rows = pd.DataFrame({"idx": idx, "y": ys[idx]})
    wrong = rows.assign(y=rows["y"].where(rows["idx"] != 50, rows["y"] + 1))
    extra = pd.concat([rows, rows.iloc[:1]])
    assert led.attempt("rows", lambda: rows, same_rows(ys, idx)) is not None
    assert led.attempt("rows-wrong", lambda: wrong, same_rows(ys, idx)) is None
    assert led.attempt("rows-extra", lambda: extra, same_rows(ys, idx)) is None
    assert led.attempt("rows-missing", lambda: rows.iloc[1:], same_rows(ys, idx)) is None

    class Approx:
        def __init__(self, values):
            self.values = values

        def approximate(self):
            return self.values

    off = ys.astype(np.float64)
    off[5] += 3.5
    assert led.attempt("lossy", lambda: Approx(off), within_eps(ys, 4)) is not None
    assert led.attempt("lossy-wrong", lambda: Approx(off), within_eps(ys, 3)) is None
    assert (led.attempted, led.failed) == (8, 5)


def test_raising_operation_is_counted_not_raised():
    led = Ledger()

    def boom():
        raise ValueError("broken")

    assert led.attempt("boom", boom, lambda _: True) is None
    assert (led.attempted, led.failed) == (1, 1)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_config()
