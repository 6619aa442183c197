"""NeaTS benchmark: one command, three workloads, every metric by name.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see ``spans.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Run details (versions, cores, Spark settings, failures) go to
``.bench_out/`` and to the line before it.

    python3 perfbench/run.py --write-config   # regenerate BENCHMARK.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER_MEMORY = "2g"

sys.path.insert(0, HERE)

import spec  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--write-config", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if not args.write_config and args.workload is None:
        ap.error("--workload is required")
    return args


def spark_environment(out_dir: str, cores: int) -> dict:
    """Environment for a local Spark session whose files all stay under
    ``out_dir``; returns the settings recorded with the run."""
    local = os.path.join(out_dir, "spark-local")
    tmp = os.path.join(out_dir, "tmp")
    for d in (local, tmp):
        os.makedirs(d, exist_ok=True)
    master = f"local[{cores}]"
    # one garbage-collector thread: the JVM's work between jobs would
    # otherwise take cores from the driver's Python process
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:+UseSerialGC -XX:TieredStopAtLevel=1"
    os.environ.update({
        "SPARK_MASTER": master,
        "SPARK_LOCAL_DIRS": local,
        "TMPDIR": tmp,
        "SPARK_LAUNCHER_OPTS": java_opts,  # the JVM that spark-submit starts first
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
        "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
        "PYSPARK_SUBMIT_ARGS": " ".join([
            "--master", master,
            "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", shlex.quote(java_opts),
            "--conf", f"spark.local.dir={shlex.quote(local)}",
            "--conf", f"spark.sql.warehouse.dir={shlex.quote(os.path.join(out_dir, 'warehouse'))}",
            "--conf", "spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]),
    })
    tempfile.tempdir = tmp
    return {"master": master, "driver_memory": DRIVER_MEMORY}


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and the Python workers it
    started) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 — last resort so nothing outlives the run
            proc.kill()
            proc.wait(timeout=30)


def versions() -> dict:
    import numpy
    import pyarrow
    import pyspark

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "pyarrow": pyarrow.__version__, "pyspark": pyspark.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_config:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_config(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import inputs
    from phases import Run, layer_targets
    from spans import NullTracer, Tracer, install, uninstall

    sizes = inputs.TINY if args.tiny else inputs.FULL
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    out_dir = os.path.join(OUT, run_id)
    os.makedirs(out_dir, exist_ok=True)
    # Spark gets half the cores: with the driver's own Python process beside
    # it, more would measure the scheduler of a shared machine
    cores = max(1, min(2, (os.cpu_count() or 1) // 2))
    env = {"nproc": os.cpu_count(), **spark_environment(out_dir, cores), **versions(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny}

    from repro.runner import get_spark

    phase_s = {}
    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    phase_s["spark_start"] = time.perf_counter() - t0
    tracer = Tracer(run_id) if args.trace else NullTracer()
    saved = install(tracer, layer_targets()) if args.trace else []
    try:
        run = Run(args.workload, args.seed, args.seconds, sizes, tracer, spark, out_dir)
        setup_times = []
        for _ in range(sizes.query_setups if args.workload == "query" else sizes.setups):
            t0 = time.perf_counter()
            plan = run.setup()
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run.warm_up(plan)
        t1 = time.perf_counter()
        run.timed(plan)
        t2 = time.perf_counter()
        phase_s.update(setup=sum(setup_times), warm_up=t1 - t0, timed=t2 - t1)
        raw = run.end_to_end(setup_times)
        e2e = run.at_reference_speed(raw, plan)
        layers = None
        if args.trace:
            run.layer_probes(plan)
            phase_s["probes"] = time.perf_counter() - t2
            layers = run.per_layer()
    finally:
        uninstall(saved)
        stop_spark(spark)

    correct = run.probe.failed == 0  # failed operations are counted in "failed" instead
    metrics = layers if args.trace else e2e
    detail = {**env, "rounds": run.rounds, "phase_s": phase_s, "setup_times_s": setup_times,
              "speed_factor": {p: run.speed.factor(p) for p in run.speed.samples},
              "end_to_end_raw": raw,
              "failures": dict(run.led.failures), "probe_failures": dict(run.probe.failures),
              "end_to_end": e2e, "per_layer": layers,
              "samples": {k: v for k, v in run.led.samples.items() if len(v) <= 64}}
    if args.trace:
        untraced = os.path.join(OUT, run_id.replace("trace1", "trace0"), "result.json")
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh)["end_to_end"]
            detail["tracing_overhead"] = {k: e2e[k] / base[k] - 1.0 for k in e2e if base.get(k)}
        tracer.dump(os.path.join(out_dir, "spans.json"), detail)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    print(json.dumps({k: detail[k] for k in ("nproc", "master", "driver_memory", "python", "numpy",
                                             "pyarrow", "pyspark", "rounds", "phase_s", "failures")}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.led.attempted,
        "failed": run.led.failed,
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
