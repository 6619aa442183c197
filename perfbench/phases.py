"""The two workloads, built from three phases.

* build — NeaTS compress + ``to_bytes`` (checked by a ``from_bytes`` round
  trip) and NeaTS-L compress (checked against its ε bound);
* query — ``from_bytes``, random ``access``, 10- and 2560-value ``scan``,
  full ``decompress`` and a sample of ``access_succinct``, each checked
  against the generated array;
* store — ``compress_to_blocks`` → ``write_store``, full decode,
  ``scan_range`` and ``point_lookup`` through the Parquet store, each checked
  row for row.

Every run reports every end-to-end metric, so every workload runs all three
phases; the workload decides the inputs and where its load goes.  A run is
set-up, then whole rounds of the same operations for ``--seconds``, so the
share of failed operations does not depend on run length.  Within a round the
short query operations are spread between the long build and store steps
(:func:`interleave`), so every metric samples the whole run rather than a
burst of it: the machine's speed drifts over seconds.
"""
from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
import pandas as pd

import inputs as inp
import spec
from ledger import Ledger, same_rows, same_values, within_eps
from speed import Speed

MB = 1e6
LOSSY_REPS = 2    # NeaTS-L compressions per series per round: each is short
#: ``NeaTS.access`` evaluates these kinds with ``math`` where ``decompress``
#: and ``NeaTS.compress`` use numpy; the two round differently now and then,
#: and ``access`` comes out one off on some seeds.  Random access leaves out
#: positions in such fragments (see the README).
ACCESS_LEFT_OUT_KINDS = frozenset({"exponential"})
STORE_LAYERS = {
    "compress_to_blocks", "decompress_blocks", "random_access", "write_store", "read_blocks",
    "scan_range", "point_lookup", "store_size_bytes",
}


def layer_targets():
    """The layer functions the traced run wraps: ``(owner, attribute, span
    name, count)``.  Functions the benchmark calls itself are timed with
    ``Tracer.span`` at the call instead."""
    from repro.core import bitstream, eliasfano, lossy, neats, wavelet
    from repro.sparkio import codec, rowgroup_store

    NeaTS = neats.NeaTS
    return [
        (neats, "optimal_partition", "partition", lambda a, k, r: len(a[0])),
        (lossy, "optimal_partition", "lossy.partition", lambda a, k, r: len(a[0])),
        (neats, "select_pairs", "select_pairs", None),
        (NeaTS, "__init__", "layout.build", None),
        (NeaTS, "to_bytes", "neats.to_bytes", None),
        (NeaTS, "from_bytes", "neats.from_bytes", None),
        (NeaTS, "access_succinct", "neats.access_succinct", None),
        (neats, "gather_bits", "bitstream.gather", lambda a, k, r: 8 * len(r)),
        (eliasfano.EliasFano, "__getitem__", "eliasfano.access", None),
        (bitstream.PackedArray, "__getitem__", "packed.access", None),
        (wavelet.WaveletTree, "access", "wavelet.access", None),
        (rowgroup_store, "write_store", "write_store", None),
        (rowgroup_store, "read_blocks", "read_blocks", None),
        (rowgroup_store, "store_size_bytes", "store_size_bytes", None),
        (rowgroup_store, "scan_range", "scan_range", None),
        (rowgroup_store, "point_lookup", "point_lookup", None),
        (codec, "compress_to_blocks", "compress_to_blocks", None),
        (codec, "decompress_blocks", "decompress_blocks", None),
        (codec, "random_access", "random_access", None),
    ]


@dataclass
class Series:
    name: str
    ys: np.ndarray
    variant: str = "neats"
    blob: bytes | None = None
    eps: int = 0
    draws: inp.Draws | None = None


@dataclass
class Plan:
    """What one workload runs.  ``build`` series are compressed every round
    (``ingest``) or once in set-up (``query``); the query phase runs on the
    artifacts they produce; ``store`` is the Spark input."""

    build: list[Series]
    store: np.ndarray
    block: int
    store_scan_len: int
    store_scans: int    # scan_range queries per round
    store_lookups: int  # point_lookup batches per round
    decodes: int        # full store decodes per round
    writes: int = 1     # encode + write passes per round, each followed by its share of the reads
    build_in_setup: bool = False
    extreme: np.ndarray | None = None
    frame: object = None  # the store input as a Spark DataFrame, made in set-up


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, sizes: inp.Sizes,
                 tracer, spark, out_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sz = sizes
        self.tr = tracer
        self.spark = spark
        self.out_dir = out_dir
        self.led = Ledger()
        self.probe = Ledger()  # traced-run layer probes: checked, not counted as operations
        self.rounds = 0
        self.speed = Speed()
        self.store_ops: list[tuple[int, int]] = []  # (round, span id) of each store step

    # ------------------------------------------------------------- set-up
    def make_plan(self) -> Plan:
        s, sz = self.seed, self.sz
        store = dict(block=sz.block, store_scan_len=sz.block // 2, store_scans=sz.store_scans,
                     store_lookups=sz.store_lookups, decodes=sz.decodes)
        if self.workload == "ingest":
            build = [Series(n, inp.series(n, sz.ingest_n, s)) for n in inp.INGEST_SERIES]
            return Plan(build, build[0].ys[: sz.ingest_store_n], extreme=inp.full_int64_series(),
                        writes=sz.ingest_store_writes, **store)
        if self.workload == "query":
            build = [Series(n, inp.series(n, sz.query_n, inp.QUERY_DATA_SEED), variant="sneats")
                     for n in inp.QUERY_SERIES]
            return Plan(build, build[0].ys, build_in_setup=True, **store)
        raise ValueError(f"unknown workload {self.workload!r}")

    def setup(self) -> Plan:
        """Make the inputs, build the query artifacts where the workload does
        so in set-up, and hand the store input to Spark."""
        self.speed.sample("setup")
        with self.tr.span("setup"):
            plan = self.make_plan()
            for i, ser in enumerate(plan.build):
                ser.eps = inp.lossy_eps(ser.ys)
                ser.draws = inp.Draws(self.seed, 100 + i, len(ser.ys))
            if plan.build_in_setup:
                for ser in plan.build:
                    self._compress(ser)
                    self.speed.sample("setup")
            pdf = pd.DataFrame({"idx": np.arange(len(plan.store), dtype=np.int64), "y": plan.store})
            df = self.spark.createDataFrame(pdf)
            df.count()
            plan.frame = df
        return plan

    # -------------------------------------------------------------- build
    def _compress(self, ser: Series) -> None:
        from repro.core.neats import NeaTS

        ys = ser.ys
        ser.blob = None  # a failed build leaves nothing for the query phase
        got = self.led.attempt(
            f"compress[{ser.name}]",
            lambda: NeaTS.compress(ys, variant=ser.variant).to_bytes(),
            lambda blob: np.array_equal(NeaTS.from_bytes(blob).decompress(), ys),
        )
        if got is not None:
            ser.blob, secs = got
            self.led.add("compress.bytes_in", ys.nbytes)
            self.led.add("compress.seconds", secs)
            self.led.add("compress.bytes_out", len(ser.blob))

    def _lossy(self, ser: Series, n: int | None = None) -> None:
        from repro.core.lossy import NeaTSLossy

        ys = ser.ys[:n]
        got = self.led.attempt(f"lossy[{ser.name}]", lambda: NeaTSLossy.compress(ys, ser.eps),
                               within_eps(ys, ser.eps))
        if got is not None:
            self.led.add("lossy.bytes_in", ys.nbytes)
            self.led.add("lossy.seconds", got[1])

    def _extreme(self, ys: np.ndarray) -> None:
        """The full-int64 series: compress + round trip, outside every metric."""
        from repro.core.neats import NeaTS

        with np.errstate(all="ignore"), self.tr.span("extreme"):
            self.led.attempt("compress[full-int64]", lambda: NeaTS.compress(ys).to_bytes(),
                             lambda blob: np.array_equal(NeaTS.from_bytes(blob).decompress(), ys))

    # -------------------------------------------------------------- query
    def _query_steps(self, ser: Series) -> list:
        """The query operations on ``ser``'s artifact, as ``query_slices + 1``
        steps: open it with ``from_bytes`` and draw this round's keys and
        range starts, then slices that each mix accesses, scans,
        decompressions and ``access_succinct``."""
        from repro.core.neats import NeaTS

        led, ys, n, sz, chunks = self.led, ser.ys, len(ser.ys), self.sz, self.sz.query_slices
        state = {}

        def open_artifact():
            state.clear()
            if ser.blob is None:  # its build failed and was counted
                return
            got = led.attempt("from_bytes", lambda: NeaTS.from_bytes(ser.blob), lambda a: a.n == n)
            if got is None:
                return
            art = got[0]
            with self.tr.paused():
                pool = access_pool(art)
            state.update(
                art=art,
                keys=ser.draws.keys_from(pool, sz.accesses).tolist(),
                small=ser.draws.starts(sz.small_scans, inp.SMALL_RANGE).tolist(),
                large=ser.draws.starts(sz.large_scans, sz.large_range).tolist(),
                succinct=ser.draws.keys(sz.succinct_sample).tolist(),
            )

        def query_slice(c: int):
            art = state.get("art")
            if art is None:
                return
            for k in state["keys"][c::chunks]:
                r = led.attempt("access", lambda k=k: art.access(k), lambda v, k=k: v == ys[k])
                if r is not None:
                    led.add("access.us", r[1] * 1e6)
            for lo in state["small"][c::chunks]:
                hi = lo + inp.SMALL_RANGE
                r = led.attempt("scan.small", lambda lo=lo, hi=hi: art.scan(lo, hi), same_values(ys[lo:hi]))
                if r is not None:
                    led.add("scan.small.us", r[1] * 1e6)
            for lo in state["large"][c::chunks]:
                hi = lo + sz.large_range
                r = led.attempt("scan.large", lambda lo=lo, hi=hi: art.scan(lo, hi), same_values(ys[lo:hi]))
                if r is not None:
                    led.add("scan.large.mb_s", 8 * sz.large_range / r[1] / MB)
            for _ in range(sz.decompress_reps):
                r = led.attempt("decompress", art.decompress, same_values(ys))
                if r is not None:
                    led.add("decompress.mb_s", ys.nbytes / r[1] / MB)
            for k in state["succinct"][c::chunks]:
                led.attempt("access_succinct", lambda k=k: art.access_succinct(k), lambda v, k=k: v == ys[k])

        return [open_artifact] + [lambda c=c: query_slice(c) for c in range(chunks)]

    # -------------------------------------------------------------- store
    def _store_steps(self, plan: Plan) -> list:
        """The store operations, one step each: encode + write first, then the
        full decode, the pruned scans and the point-lookup batches."""
        from repro.sparkio.codec import compress_to_blocks, decompress_blocks
        from repro.sparkio.rowgroup_store import point_lookup, read_blocks, scan_range, write_store

        spark, led, sz, ys = self.spark, self.led, self.sz, plan.store
        n = len(ys)
        df = plan.frame
        path = os.path.join(self.out_dir, "store")
        draws = inp.Draws(self.seed, 7, n)
        written = {}

        def op(fn):
            def step():
                with self.tr.span("store.op") as rec:
                    if rec is not None:
                        self.store_ops.append((self.rounds, rec["id"]))
                    fn()
            return step

        def write():
            written.clear()
            r = led.attempt("store.write",
                            lambda: write_store(compress_to_blocks(df, codec="neats", block_size=plan.block), path),
                            lambda _: _parquet_bytes(path) > 0)
            if r is not None:
                written["ok"] = True
                led.add("store.write_s", r[1])
                led.add("store.pct", 100.0 * _parquet_bytes(path) / ys.nbytes)

        def decode():
            if written:
                r = led.attempt("store.decode", lambda: decompress_blocks(read_blocks(spark, path)).toPandas(),
                                same_rows(ys, np.arange(n)))
                if r is not None:
                    led.add("store.decode_s", r[1])

        def scan(lo: int):
            hi = lo + plan.store_scan_len
            if written:
                r = led.attempt("store.scan", lambda: scan_range(spark, path, lo, hi).toPandas(),
                                same_rows(ys, np.arange(lo, hi)))
                if r is not None:
                    led.add("store.scan_s", r[1])

        def lookup(keys: np.ndarray):
            if written:
                kdf = spark.createDataFrame(pd.DataFrame({"idx": keys}))
                r = led.attempt("store.lookup",
                                lambda: point_lookup(spark, path, kdf, block_size=plan.block).toPandas(),
                                same_rows(ys, keys))
                if r is not None:
                    led.add("store.lookup_s", r[1])

        reads = [op(decode)] * plan.decodes
        reads += [op(lambda lo=lo: scan(lo))
                  for lo in draws.starts(plan.store_scans, plan.store_scan_len).tolist()]
        reads += [op(lambda keys=keys: lookup(keys))
                  for keys in [draws.keys(sz.lookup_keys, distinct=True) for _ in range(plan.store_lookups)]]
        # reads of one kind alternate with the other kinds, so each kind is
        # spread over the round; each write is followed by an equal share
        per_kind = max(plan.decodes, plan.store_scans, plan.store_lookups, 1)
        reads = [reads[i] for i in sorted(range(len(reads)), key=lambda i: (i % per_kind, i))]
        share = math.ceil(len(reads) / plan.writes)
        steps = []
        for w in range(plan.writes):
            steps += [op(write)] + reads[w * share:(w + 1) * share]
        return steps

    def warm_up(self, plan: Plan) -> None:
        """Store passes on a small prefix before timing.  Spark's first dozen
        jobs run up to 40 % slower while the JVM compiles its hot paths; the
        passes take that out of the timed rounds.  Their operations are
        checked but not counted."""
        n = self.sz.warm_up_n
        small = Plan([], plan.store[:n], block=n, store_scan_len=n // 4, store_scans=2,
                     store_lookups=2, decodes=1)
        small.frame = self.spark.createDataFrame(
            pd.DataFrame({"idx": np.arange(len(small.store), dtype=np.int64), "y": small.store}))
        led, self.led = self.led, self.probe
        try:
            with self.tr.span("warm_up"):
                for _ in range(self.sz.warm_up_passes):
                    for step in self._store_steps(small):
                        step()
        finally:
            self.led = led

    # -------------------------------------------------------------- rounds
    def one_round(self, plan: Plan) -> None:
        """One round: the long steps (builds, NeaTS-L, store operations, the
        full-int64 series) in a fixed order, with each artifact's query steps
        spread between them once the artifact exists."""
        long_steps = []  # (step, query steps it makes possible)
        store = self._store_steps(plan)
        queries = [self._query_steps(ser) for ser in plan.build]
        if plan.build_in_setup:  # every artifact exists: take them in turn
            long_steps.append((None, [q for group in zip(*queries) for q in group]))
        per_series = math.ceil(len(store) / max(len(plan.build), 1))
        for i, ser in enumerate(plan.build):
            if not plan.build_in_setup:
                long_steps.append((lambda ser=ser: self._compress(ser), queries[i]))
            # NeaTS-L runs in the rounds of both workloads (on a prefix as
            # long as an ingest series), so that its samples span the run
            long_steps.extend((lambda ser=ser: self._lossy(ser, self.sz.ingest_n), [])
                              for _ in range(LOSSY_REPS))
            long_steps.extend((step, []) for step in store[i * per_series:(i + 1) * per_series])
        if plan.extreme is not None:
            long_steps.append((lambda: self._extreme(plan.extreme), []))
        # Like timeit, keep the cyclic garbage collector out of the timed
        # calls: it runs between steps, so the benchmark's own garbage does
        # not land in the program's timings.
        gc.disable()
        try:
            with self.tr.span("round"):
                for step in interleave(long_steps):
                    step()
                    gc.collect()
                    self.speed.sample("round")
        finally:
            gc.enable()
        self.rounds += 1

    def timed(self, plan: Plan) -> None:
        """Whole rounds, at least one, while the next round (as long as the
        longest so far) still ends within ``--seconds``."""
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            r0 = time.perf_counter()
            self.one_round(plan)
            now = time.perf_counter()
            longest = max(longest, now - r0)
            if now - t0 + longest > self.seconds:
                break

    # -------------------------------------------------------------- probes
    def layer_probes(self, plan: Plan) -> None:
        """Traced run only: layer calls the workload itself does not make on
        the driver, on the workload's own inputs."""
        with self.tr.span("probes"):
            self._layer_probes(plan)

    def _layer_probes(self, plan: Plan) -> None:
        from repro.core.piecewise import piecewise_partition
        from repro.sparkio import codec
        from repro.sparkio.rowgroup_store import read_blocks, store_size_bytes, write_store

        tr, pr, sz, spark = self.tr, self.probe, self.sz, self.spark
        # fit: the greedy fragments of every (family, eps) pair NeaTS would
        # consider, on the same shifted input as NeaTS.compress
        for ser in plan.build:
            fams, eps, shifted = _pairs_for(ser.ys, ser.variant, tr)
            for fam in fams:
                for e in eps:
                    with tr.span("fit", count=len(shifted)):
                        piecewise_partition(shifted, fam, e)
        # Spark encode, decompose: the Spark job, the serial per-block codec,
        # the write of already-encoded blocks and the read back
        ys, n = plan.store, len(plan.store)
        df = plan.frame
        enc = codec.compress_to_blocks(df, codec="neats", block_size=sz.block).cache()
        with tr.span("spark.encode"):
            total = store_size_bytes(enc)
        blobs = []
        for lo in range(0, n, sz.block):
            with tr.span("codec.encode_block"):
                blobs.append((lo, codec.encode_block(ys[lo:lo + sz.block], "neats")))
        pr.record("probe.encode_size", total == sum(len(b) for _, b in blobs))
        path = os.path.join(self.out_dir, "store-probe")
        with tr.span("store.write"):
            write_store(enc, path)
        with tr.span("store.read"):
            stored = store_size_bytes(read_blocks(spark, path))
        pr.attempt("probe.store_read", lambda: stored, lambda v: v == total)
        with tr.span("spark.decode"):
            got = codec.decompress_blocks(enc).toPandas()
        pr.attempt("probe.spark_decode", lambda: got, same_rows(ys, np.arange(n)))
        for lo, blob in blobs:
            m = min(sz.block, n - lo)
            with tr.span("codec.decode_block"):
                vals = codec.decode_block(blob, "neats", m)
            pr.attempt("probe.decode_block", lambda: vals, same_values(ys[lo:lo + m]))
        keys = inp.Draws(self.seed, 8, n).keys(sz.lookup_keys, distinct=True)
        kdf = spark.createDataFrame(pd.DataFrame({"idx": keys}))
        with tr.span("spark.lookup"):
            got = codec.random_access(enc, kdf, block_size=sz.block).toPandas()
        pr.attempt("probe.spark_lookup", lambda: got, same_rows(ys, keys))
        enc.unpersist()
        shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------ metrics
    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        s = self.led.samples

        def ratio(num: str, den: str, scale: float = 1.0) -> float:
            return scale * sum(s[num]) / sum(s[den])

        return {
            "setup_s": statistics.median(setup_times),
            "compress_mb_s": ratio("compress.bytes_in", "compress.seconds", 1 / MB),
            "lossy_compress_mb_s": ratio("lossy.bytes_in", "lossy.seconds", 1 / MB),
            "compressed_pct": ratio("compress.bytes_out", "compress.bytes_in", 100.0),
            "decompress_mb_s": statistics.median(s["decompress.mb_s"]),
            "access_p50_us": float(np.percentile(s["access.us"], 50)),
            "range_small_p50_us": float(np.percentile(s["scan.small.us"], 50)),
            "range_large_mb_s": statistics.median(s["scan.large.mb_s"]),
            "store_write_s": statistics.median(s["store.write_s"]),
            "store_pct": statistics.median(s["store.pct"]),
            "store_scan_p50_s": statistics.median(s["store.scan_s"]),
            "store_lookup_p50_s": statistics.median(s["store.lookup_s"]),
            "store_decode_s": statistics.median(s["store.decode_s"]),
        }

    def at_reference_speed(self, raw: dict[str, float], plan: Plan) -> dict[str, float]:
        """``raw`` scaled by the machine's speed in the phase each metric
        was measured in: set-up for ``setup_s`` and for the builds made in
        set-up, the rounds for the rest."""
        out = {}
        for m in spec.END_TO_END:
            in_setup = m.name == "setup_s" or (m.name == "compress_mb_s" and plan.build_in_setup)
            f = self.speed.factor("setup" if in_setup else "round")
            v = raw[m.name]
            out[m.name] = v * f if m.speed == "time" else v / f if m.speed == "rate" else v
        return out

    def per_layer(self) -> dict[str, float]:
        tr = self.tr

        def total(name: str) -> float:
            return sum(tr.durations(name))

        def median_us(name: str) -> float:
            return 1e6 * statistics.median(tr.durations(name))

        fit = total("fit")
        partition = _per_build(tr, "partition")
        gather_s = total("bitstream.gather")
        gather_b = sum(tr.counts("bitstream.gather"))
        encode_serial = total("codec.encode_block")
        spark_encode = total("spark.encode")
        unaccounted: dict[int, float] = {}
        for rnd, sid in self.store_ops:
            span = tr.spans[sid]
            unaccounted[rnd] = unaccounted.get(rnd, 0.0) + (
                span["end"] - span["start"] - tr.covered(sid, STORE_LAYERS))
        return {
            "fit.s": fit,
            "fit.points_per_s": sum(tr.counts("fit")) / fit,
            "partition.s": partition,
            "partition.sweep_s": partition - fit,
            "lossy.partition_s": _per_build(tr, "lossy.partition"),
            "select_pairs.s": _per_build(tr, "select_pairs"),
            "layout.build_s": _per_build(tr, "layout.build"),
            "neats.to_bytes_us": median_us("neats.to_bytes"),
            "neats.from_bytes_us": median_us("neats.from_bytes"),
            "neats.access_succinct_us": median_us("neats.access_succinct"),
            "bitstream.gather_mb_s": gather_b / gather_s / MB,
            "eliasfano.access_us": median_us("eliasfano.access"),
            "packed.access_us": median_us("packed.access"),
            "wavelet.access_us": median_us("wavelet.access"),
            "spark.encode_s": spark_encode,
            "codec.encode_block_s": encode_serial,
            "spark.encode_parallelism": encode_serial / spark_encode,
            "spark.decode_s": total("spark.decode"),
            "codec.decode_block_s": total("codec.decode_block"),
            "spark.lookup_s": total("spark.lookup"),
            "store.write_s": total("store.write"),
            "store.read_s": total("store.read"),
            "store.unaccounted_s": statistics.median(unaccounted.values()),
        }


def interleave(long_steps) -> list:
    """Flatten ``(step, short steps it makes possible)`` pairs into one
    order: each long step (``None`` for none), then an even share of the
    short steps made possible so far, so that they spread over the remaining
    long steps.  The order is fixed by the input, the same every round."""
    out, ready = [], deque()
    for j, (step, short) in enumerate(long_steps):
        if step is not None:
            out.append(step)
        ready.extend(short)
        for _ in range(math.ceil(len(ready) / (len(long_steps) - j))):
            out.append(ready.popleft())
    return out


def access_pool(art) -> np.ndarray:
    """Positions of ``art`` that random access draws from: all but those in
    fragments of ``ACCESS_LEFT_OUT_KINDS``, or all of them when no other
    fragment is left (a short series fitted by one such fragment)."""
    from repro.core.models import FAMILIES

    bounds = art.S.to_list() + [art.n]
    keep = np.ones(art.n, dtype=bool)
    for i, kid in enumerate(art.K.to_list()):
        if FAMILIES[kid].kind in ACCESS_LEFT_OUT_KINDS:
            keep[bounds[i]:bounds[i + 1]] = False
    return np.flatnonzero(keep) if keep.any() else np.arange(art.n)


def _per_build(tr, name: str) -> float:
    """Seconds in span ``name`` per build of the workload's compress set:
    per round where the rounds compress, else per set-up, else (for a layer
    the workload never calls) in the layer probes."""
    for phase in ("round", "setup", "probes"):
        spans = [s for s in tr.spans if s["name"] == name
                 and tr.has_ancestor(s, phase) and not tr.has_ancestor(s, "extreme")]
        if spans:
            phases = sum(1 for s in tr.spans if s["name"] == phase)
            return sum(s["end"] - s["start"] for s in spans) / phases
    raise ValueError(f"no {name!r} span recorded")


def _pairs_for(ys, variant: str, tr):
    """The (family, eps) pairs and the shifted input ``NeaTS.compress`` uses.

    ``select_pairs`` runs for every variant: for SNeaTS it picks the pairs;
    for the others it is timed only, so ``select_pairs.s`` exists on every
    workload."""
    from repro.core.models import DEFAULT_FAMILIES
    from repro.core.partition import default_epsilons, select_pairs

    ys = np.asarray(ys, dtype=np.int64)
    fams = list(DEFAULT_FAMILIES)
    eps = default_epsilons(ys, step_bits=1)
    shift = 0
    if any(f.requires_positive for f in fams):
        shift = max(int(max(eps) + 1 - ys.min()), 0)
    shifted = ys + shift
    with tr.span("select_pairs" if variant != "sneats" else "select_pairs.probe"):
        picked = select_pairs(shifted, fams, eps)
    if variant == "sneats":
        fams, eps, _ = picked
    return fams, eps, shifted


def _parquet_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f.endswith(".parquet"))
    return total
