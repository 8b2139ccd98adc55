"""Wall-clock spans recorded by the benchmark around calls into each
layer, kept in memory and written out once as Chrome trace-event JSON
(Perfetto and ``chrome://tracing`` open it as is).

Every span carries its layer, the id of the query it belongs to (spans
of one query share it) and its parent span.  Times are
``time.monotonic()`` seconds -- the clock the daemon's own tracer
uses -- so the server's ``queued``/``running`` spans from
``query_trace`` land on the same timeline as the client spans that
cover them, even though they were recorded in another process.

A layer's *self time* is its spans' durations minus the part of each
interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

#: every layer the per-layer table names, in stack order
LAYERS = ("core", "middleware", "store", "services", "server", "transport", "obs")


class Spans:
    """An in-memory span list.  ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(
        self,
        layer: str,
        name: str,
        start: float,
        end: float,
        *,
        query: str | None = None,
        parent: int | None = None,
        pid: int | None = None,
        span_id: int | None = None,
        **args,
    ) -> int | None:
        """Record a finished span; returns its id (``span_id`` when one
        was reserved for it)."""
        if not self.enabled:
            return None
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        if span_id is None:
            span_id = next(self._ids)
        with self._lock:
            self.records.append(
                {
                    "id": span_id,
                    "layer": layer,
                    "name": name,
                    "start": start,
                    "end": end,
                    "query": query,
                    "parent": parent,
                    "pid": pid if pid is not None else os.getpid(),
                    "tid": threading.get_ident(),
                    "args": args,
                }
            )
        return span_id

    @contextlib.contextmanager
    def span(self, layer: str, name: str, *, query: str | None = None, **args):
        """Time the ``with`` body as one span, nested under the span the
        current thread has open."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        reserved = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(reserved)
        start = time.monotonic()
        try:
            yield reserved
        finally:
            end = time.monotonic()
            stack.pop()
            self.add(
                layer, name, start, end,
                query=query, parent=parent, span_id=reserved, **args,
            )

    def extend(self, records: list[dict]) -> None:
        """Merge spans recorded by another process (ids renumbered)."""
        if not self.enabled or not records:
            return
        remap = {record["id"]: next(self._ids) for record in records}
        with self._lock:
            for record in records:
                copy = dict(record)
                copy["id"] = remap[record["id"]]
                copy["parent"] = remap.get(record["parent"])
                self.records.append(copy)

    # ------------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Per layer: total span time minus the time its children
        cover (child intervals clipped to the parent and merged)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for record in self.records:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(
                    (record["start"], record["end"])
                )
        totals = {layer: 0.0 for layer in LAYERS}
        for record in self.records:
            start, end = record["start"], record["end"]
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(record["id"], [])):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[record["layer"]] += max(0.0, (end - start) - covered)
        return totals

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span,
        microseconds, with the query id and parent in ``args``."""
        events = []
        for record in sorted(self.records, key=lambda r: r["start"]):
            events.append(
                {
                    "name": record["name"],
                    "cat": record["layer"],
                    "ph": "X",
                    "ts": record["start"] * 1e6,
                    "dur": max(0.0, record["end"] - record["start"]) * 1e6,
                    "pid": record["pid"],
                    "tid": record["tid"],
                    "args": {
                        "query": record["query"],
                        "span": record["id"],
                        "parent": record["parent"],
                        **record["args"],
                    },
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
