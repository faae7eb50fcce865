"""In-memory span recorder and the per-layer self-time report.

Spans come only from wrappers this benchmark installs around public
calls of the program (``Recorder.wrap``); nothing inside ``src`` is
edited.  A span is ``(id, name, start, end, parent, request)``: the
parent is the innermost open span on the calling thread, or, for a call
that runs on a thread the benchmark does not own (an HTTP handler, a
serve worker), the span the benchmark marks as the current request
owner.  Spans stay in memory until :meth:`Recorder.dump`.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (overlapping children count once).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class SpanRecord:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span store with monkey-patch wrappers."""

    def __init__(self):
        self.spans: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []
        self.owner: SpanRecord | None = None  # adopted by foreign threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None, parent: int | None = None,
             **attrs):
        stack = self._stack()
        outer = stack[-1] if stack else self.owner
        if parent is None and outer is not None:
            parent = outer.id
        if request is None and outer is not None:
            request = outer.request
        record = SpanRecord(next(self._ids), name, time.perf_counter(), parent=parent,
                            request=request, attrs=attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            request: str | None = None, **attrs) -> SpanRecord:
        """Record an interval measured elsewhere (e.g. a queue wait)."""
        record = SpanRecord(next(self._ids), name, start, end, parent, request, attrs)
        with self._lock:
            self.spans.append(record)
        return record

    def wrap(self, owner, attr: str, name: str, attrs_of=None, after=None,
             adopt: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until :meth:`unwrap_all`.

        ``attrs_of(args, kwargs)`` returns span attributes taken before
        the call; ``after(record)`` may add more once it returned.  With
        ``adopt``, spans opened on other threads during the call (work
        the call hands to a worker and waits for) become its children.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
            with recorder.span(name, **attrs) as record:
                if adopt:
                    outer, recorder.owner = recorder.owner, record
                try:
                    result = func(*args, **kwargs)
                finally:
                    if adopt:
                        recorder.owner = outer
            if after is not None:
                after(record)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(original, staticmethod)
                else wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def load(self, path, id_offset: int) -> None:
        """Add the spans another process dumped, shifting their ids."""
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                raw = json.loads(line)
                raw["id"] += id_offset
                if raw["parent"] is not None:
                    raw["parent"] += id_offset
                with self._lock:
                    self.spans.append(SpanRecord(**raw))

    def named(self, name: str) -> list[SpanRecord]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s), default=str) + "\n")


def covered(interval: tuple[float, float], children) -> float:
    """Length of ``interval`` covered by the union of ``children`` intervals."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans, extra_children=None) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    ``extra_children`` maps a span id to further child spans that are
    not its tree children (a shared batch serving several requests).
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for sid, extra in (extra_children or {}).items():
        children[sid].extend(extra)
    return {
        s.id: s.duration - covered((s.start, s.end),
                                   [(c.start, c.end) for c in children[s.id]])
        for s in spans
    }


def layer_report(spans, root_name: str, layer_of, extra_children=None) -> dict:
    """Per-layer call count, self time and share of the traced request time.

    Only spans inside the trees of ``root_name`` spans count; a span is
    visited once per root whose tree holds it, so a batch shared by two
    requests is charged to both, as both waited for it.  ``layer_of``
    maps a span name to its layer (``None`` skips the span).
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children[s.parent].append(s)
    for sid, extra in (extra_children or {}).items():
        children[sid].extend(extra)
    selfs = self_times(spans, extra_children)
    roots = [s for s in spans if s.name == root_name]
    total = sum(r.duration for r in roots)
    layers: dict[str, dict] = {}
    for root in roots:
        todo, seen = [root], set()
        while todo:
            s = todo.pop()
            if s.id in seen:
                continue
            seen.add(s.id)
            todo.extend(children[s.id])
            layer = layer_of(s.name)
            if layer is None:
                continue
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[s.id]
    for entry in layers.values():
        entry["share"] = entry["self_s"] / total if total > 0 else 0.0
    return {"requests": len(roots), "request_s": total, "layers": layers}


def print_layer_report(report: dict, title: str, stream=None) -> None:
    print(f"-- self time per layer: {title} ({report['requests']} requests, "
          f"{report['request_s']:.3f} s traced) --", file=stream)
    rows = sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, entry in rows:
        print(f"  {layer:28s} calls {entry['calls']:7d}  self {entry['self_s']:9.3f} s"
              f"  share {100 * entry['share']:6.1f}%", file=stream)


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one wrapped span (enter + exit) on this host."""
    recorder = Recorder()
    start = time.perf_counter()
    for _ in range(samples):
        with recorder.span("probe"):
            pass
    return (time.perf_counter() - start) / samples
