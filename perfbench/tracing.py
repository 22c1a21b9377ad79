"""In-memory spans recorded around calls into the program's layers.

A span is (id, parent, name, layer, start, end).  Spans nest per thread:
``span()`` parents a new span on the innermost open span of the calling
thread.  ``add()`` records a span whose times come from elsewhere, such as
a phase duration the program wrote to its progress.json.  Nothing is
written until ``dump()`` at the end of a run.

A span's self time is its duration minus the part of its interval that its
children cover; the self times of a tree therefore sum to its root's
duration, and the root's self time is the unattributed gap.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1] if st else None
        st.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, layer, t0, t1))

    def add(self, name: str, layer: str, start: float, end: float, parent: int | None) -> int:
        sid = next(self._ids)
        with self._lock:
            self.spans.append(Span(sid, parent, name, layer, start, end))
        return sid

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in sorted(self.spans, key=lambda s: s.start)], f)


class NullTracer:
    """Tracing off: same interface, records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        yield None

    def add(self, name, layer, start, end, parent) -> None:
        return None


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    clipped to the span (overlapping children are counted once)."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in kids.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = s.dur - _covered(clipped)
    return out


def root_of(spans: list[Span]) -> dict[int, int]:
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        r = s
        while r.parent is not None and r.parent in by_id:
            r = by_id[r.parent]
        out[s.id] = r.id
    return out


def layer_table(spans: list[Span], root_name: str) -> tuple[list[dict], float, float]:
    """Rows (layer, name, calls, self_s, share) over every tree whose root is
    named ``root_name``.  The roots' own self time is the row named
    ``gap``.  Returns (rows, summed root duration, summed self time)."""
    roots = {s.id for s in spans if s.parent is None and s.name == root_name}
    rid = root_of(spans)
    st = self_times(spans)
    rows: dict[tuple[str, str], dict] = {}
    for s in spans:
        if rid[s.id] not in roots:
            continue
        key = ("gap", "gap") if s.id in roots else (s.layer, s.name)
        r = rows.setdefault(key, {"layer": key[0], "name": key[1], "calls": 0, "self_s": 0.0})
        r["calls"] += 0 if s.id in roots else 1
        r["self_s"] += st[s.id]
    total = sum(s.dur for s in spans if s.id in roots)
    summed = sum(r["self_s"] for r in rows.values())
    for r in rows.values():
        r["share"] = r["self_s"] / total if total > 0 else 0.0
    return sorted(rows.values(), key=lambda r: -r["self_s"]), total, summed


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of opening and closing one span on this host."""
    t = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x", "x"):
            pass
    return (time.perf_counter() - t0) / n
