"""The unified observability plane.

One :class:`Observability` object bundles everything a layer needs to
instrument itself:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  log-bucketed histograms (Prometheus-text and JSON exports),
* a :class:`~repro.obs.tracing.Tracer` producing per-query span traces
  (admission → scheduling → engine rounds → halt),
* a :class:`~repro.obs.tracing.SlowQueryLog` retaining structured
  records -- spans plus the per-round τ/W/B bound trajectory -- for
  queries over a wall-clock threshold, and
* :class:`~repro.obs.profile.QueryProbe` factories for the engines'
  round-boundary hook.

Layers take ``obs: Observability | None = None`` and resolve ``None``
to :data:`NULL_OBS`, the shared disabled plane, whose every factory
hands out shared no-op objects -- so the instrumented code path is
identical either way and costs one attribute load plus an empty method
call.  The hard contract -- enforced by the
differential suite's instrumentation-on axis -- is **zero
perturbation**: instrumentation on or off, results, tie order,
``AccessStats`` and trace bytes stay bit-identical, and observability
reads are never charged as middleware cost.

The clock is injectable (``Observability(clock=...)``) and shared by
the registry and tracer, so tests drive a deterministic counter-clock
and assert byte-stable exports.
"""

from __future__ import annotations

import time
from typing import Callable

from .export import MetricsExporter
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
)
from .profile import QueryProbe, RoundProfile
from .tracing import NULL_TRACE, QueryTrace, SlowQueryLog, Span, Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_INSTRUMENT",
    "QueryProbe",
    "RoundProfile",
    "Tracer",
    "QueryTrace",
    "Span",
    "SlowQueryLog",
    "NULL_TRACE",
    "MetricsExporter",
]


class Observability:
    """Registry + tracer + slow-query log behind one switch."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.monotonic,
        slow_query_threshold: float | None = None,
        slow_query_sink: Callable[[dict], None] | None = None,
        trace_capacity: int = 128,
    ):
        self.enabled = enabled
        self.clock = clock
        self.registry = MetricsRegistry(enabled=enabled, clock=clock)
        self.tracer = Tracer(
            clock=clock, capacity=trace_capacity, enabled=enabled
        )
        self.slow_queries = SlowQueryLog(
            threshold_s=slow_query_threshold, sink=slow_query_sink
        )

    # registry passthroughs, so layers hold one handle
    def counter(self, name, labels=None, help=""):
        return self.registry.counter(name, labels, help)

    def gauge(self, name, labels=None, help=""):
        return self.registry.gauge(name, labels, help)

    def histogram(self, name, labels=None, help=""):
        return self.registry.histogram(name, labels, help)

    def probe(
        self, session, *, sample_every: int = 1
    ) -> QueryProbe | None:
        """A bound-trajectory probe for ``session`` (``None`` when the
        plane is disabled, so engines skip the hook entirely).
        ``sample_every=N`` records every Nth step -- totals stay exact
        -- keeping probes cheap on very-large-N store runs."""
        if not self.enabled:
            return None
        return QueryProbe(session, sample_every=sample_every)

    def exporter(self, host: str = "127.0.0.1",
                 port: int = 0) -> MetricsExporter:
        return MetricsExporter(self.registry, host=host, port=port)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"<Observability {state}>"


#: the shared disabled plane: a layer given ``obs=None`` asks this one
#: for its instruments and gets :data:`NULL_INSTRUMENT` from every
#: factory
NULL_OBS = Observability(enabled=False)
