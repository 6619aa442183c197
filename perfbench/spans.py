"""Span recording for the traced run.

A span is ``(id, name, start, end, parent, run_id)`` plus an optional count
(bytes or points handled).  Spans come from two places, both in this
directory: ``Tracer.span`` around the benchmark's own calls into a layer,
and wrappers that :func:`install` puts around layer functions that the
program calls internally (``optimal_partition`` inside ``NeaTS.compress``,
``EliasFano.__getitem__`` inside ``NeaTS.from_bytes``, ...).  The wrappers
replace module and class attributes for the life of the run; no file of the
program changes.  Spans stay in memory until :meth:`Tracer.dump`.

The untraced run uses :class:`NullTracer`, whose ``span`` does nothing, and
installs no wrapper.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class NullTracer:
    @contextmanager
    def span(self, name: str, count: float = 0.0):
        yield

    @contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Wrapped layer calls made inside this block record no span: the
        benchmark's own bookkeeping stays out of the layer figures."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def span(self, name: str, count: float = 0.0):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "count": count}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recorded as span ``name``; ``count(args, kwargs, result)``
        gives the span's count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["count"] = float(count(args, kwargs, result))
            return result

        return traced

    # -- analysis ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def counts(self, name: str) -> list[float]:
        return [s["count"] for s in self.spans if s["name"] == name]

    def has_ancestor(self, s: dict, name: str) -> bool:
        p = s["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def covered(self, sid: int, layer_names: set[str]) -> float:
        """Time inside span ``sid`` covered by its outermost descendants whose
        name is in ``layer_names``."""
        total = 0.0
        for s in self.spans[sid + 1:]:  # descendants are recorded after sid
            if s["name"] not in layer_names:
                continue
            p = s["parent"]
            while p is not None and p != sid and self.spans[p]["name"] not in layer_names:
                p = self.spans[p]["parent"]
            if p == sid:
                total += s["end"] - s["start"]
        return total

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["run_id"] = self.run_id
        doc["self_time_s"] = dict(sorted(self.self_times().items()))
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer, targets) -> list[tuple[object, str, object]]:
    """Replace each ``(owner, attr, span_name, count)`` target with a traced
    wrapper; return what :func:`uninstall` needs to put the originals back."""
    saved = []
    for owner, attr, name, count in targets:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, count)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, count))
    return saved


def uninstall(saved) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)
