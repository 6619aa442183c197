"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this table by
``python3 perfbench/run.py --write-config``, so the names printed by a run
and the names in the config cannot drift apart.
"""
from __future__ import annotations

from dataclasses import dataclass

# A round of either workload takes about 30 s, so a run makes one round: the
# timed part is then as long as the round, its samples spread over it.  A
# full pass (4 + 22 runs per workload, ~52 s a run) takes ~2500 s of 3420.
RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


# Every run reports every end-to-end metric, so each workload runs the
# build, query and store phases; the two differ in where the load goes.  A
# third workload for the Spark store alone did not fit: a full pass is
# 4 + 22 runs per workload within 3420 s, and three workloads at ~42 s a run
# used ~89 % of it, while its Spark figures spread by 16-29 % between runs.
# Its inputs live on in ``query``.
WORKLOADS = [
    Workload("ingest", "NeaTS and NeaTS-L compress four 8192-value series of mixed shape, so the "
                       "fitter, Algorithm 1 and the layout build do nearly all the work"),
    Workload("query", "access, scan and decompress on SNeaTS artifacts of fixed series built in set-up "
                      "(cache warm), and IT in 4096-value blocks through the Parquet store, lookups cold"),
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only
    moves: str = ""             # per-layer: the end-to-end metric(s) it should move
    speed: str | None = None    # end-to-end "time" or "rate": scaled to the reference speed (speed.py)


# access_p99_us was measured and dropped: over 10 seeds its quartile spread
# was 0.20-0.50 of its median, above any bound, because the tail of a 5 us
# call on a shared 4-vCPU machine is set by neighbours and by the JVM.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25, speed="time"),
    Metric("compress_mb_s", "MB/s", "higher", 0.25, speed="rate"),
    Metric("lossy_compress_mb_s", "MB/s", "higher", 0.25, speed="rate"),
    Metric("compressed_pct", "%", "lower", 0.05),
    Metric("decompress_mb_s", "MB/s", "higher", 0.25, speed="rate"),
    Metric("access_p50_us", "us", "lower", 0.25, speed="time"),
    Metric("range_small_p50_us", "us", "lower", 0.25, speed="time"),
    Metric("range_large_mb_s", "MB/s", "higher", 0.25, speed="rate"),
    Metric("store_pct", "%", "lower", 0.05),
]
# The Spark store timings (store_write_s, store_scan_p50_s,
# store_lookup_p50_s, store_decode_s) were dropped from the end-to-end
# metrics: over ten seeds they spread by 0.13-0.35 of their median, up to
# past the largest bound allowed, and the reference loop does not follow
# the cores Spark runs on.  Each run still measures them; they are in its
# result.json (end_to_end_raw), and the per-layer metrics below name them.

PER_LAYER = [
    Metric("fit.s", "s", "lower", moves="compress_mb_s on ingest, store_write_s on query"),
    Metric("fit.points_per_s", "points/s", "higher",
           moves="compress_mb_s on ingest, store_write_s on query"),
    Metric("partition.s", "s", "lower",
           moves="compress_mb_s on ingest, setup_s on query, store_write_s on query"),
    Metric("partition.sweep_s", "s", "lower", moves="compress_mb_s on ingest"),
    Metric("lossy.partition_s", "s", "lower", moves="lossy_compress_mb_s on ingest"),
    Metric("select_pairs.s", "s", "lower", moves="setup_s on query"),
    Metric("layout.build_s", "s", "lower",
           moves="compress_mb_s on ingest, store_write_s on query"),
    Metric("neats.to_bytes_us", "us", "lower",
           moves="compress_mb_s on ingest, store_write_s on query"),
    Metric("neats.from_bytes_us", "us", "lower",
           moves="store_lookup_p50_s and store_decode_s on query, setup_s on query"),
    Metric("neats.access_succinct_us", "us", "lower",
           moves="nothing today; reference point for access_p50_us"),
    Metric("bitstream.gather_mb_s", "MB/s", "higher",
           moves="decompress_mb_s and range_large_mb_s on query"),
    Metric("eliasfano.access_us", "us", "lower",
           moves="neats.from_bytes_us, then store_lookup_p50_s on query"),
    Metric("packed.access_us", "us", "lower",
           moves="neats.from_bytes_us, then store_lookup_p50_s on query"),
    Metric("wavelet.access_us", "us", "lower",
           moves="neats.from_bytes_us, then store_lookup_p50_s on query"),
    Metric("spark.encode_s", "s", "lower", moves="store_write_s on query"),
    Metric("codec.encode_block_s", "s", "lower", moves="store_write_s on query"),
    Metric("spark.encode_parallelism", "ratio", "higher", moves="store_write_s on query"),
    Metric("spark.decode_s", "s", "lower", moves="store_decode_s on query"),
    Metric("codec.decode_block_s", "s", "lower", moves="store_decode_s on query"),
    Metric("spark.lookup_s", "s", "lower", moves="store_lookup_p50_s on query"),
    Metric("store.write_s", "s", "lower", moves="store_write_s on query"),
    Metric("store.read_s", "s", "lower",
           moves="store_scan_p50_s, store_lookup_p50_s and store_decode_s on query"),
    Metric("store.unaccounted_s", "s", "lower",
           moves="the store_* metrics on query, once a layer takes over the work"),
]

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_config() -> dict:
    """The ``BENCHMARK.json`` document, in its fixed form."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
