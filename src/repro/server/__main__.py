"""CLI entry point: the one daemon, serving both the sorted lists and
the queries over them.

::

    PYTHONPATH=src python -m repro.server --store db.store --port 0

Opens the database written by :func:`~repro.store.save_store`
out-of-core through the memory-mapped v3 store and its LRU page cache,
sized by ``--store-cache-mb`` / ``--store-page-rows`` (the cache's
hit/miss/eviction counters ride the obs plane and the ``stats`` wire
op's ``store`` key); a legacy v1/v2 ``.npz`` archive is recognised
and loaded into RAM instead.  It builds one simulated service per
list -- plus the per-shard run grid when the store is sharded --
optionally behind a seeded server-side latency model, mounts a
:class:`~repro.server.service.QueryService` on a
:class:`~repro.server.wire.QueryServer`, binds, prints one readiness
line ``LISTENING <host> <port>`` (flushed), and serves until killed.

Clients reach the same port two ways: as the paper's sorted lists
(the ``meta``/``page``/``random``/``run_page`` source ops --
:func:`~repro.services.network.network_services`,
:func:`~repro.services.network.network_shard_runs`), or as the
middleware (whole queries -- :class:`~repro.server.QueryServiceClient`).
SIGTERM is graceful: stop accepting, drain in-flight requests
(bounded by ``--drain-timeout``), tear down the service, exit 0.

``--max-active`` / ``--max-queued`` set the admission policy;
``--no-share-scans`` turns the scan cache into the benchmark's
private-scan control arm.

The daemon carries an :class:`~repro.obs.Observability` plane by
default (``--no-obs`` drops it): the ``metrics`` wire op serves the
registry snapshot, and ``--metrics-port`` additionally binds a
Prometheus-text HTTP endpoint (readiness line ``METRICS <host>
<port>`` after ``LISTENING``).  ``--slow-query-threshold`` retains any
query slower than the threshold with its per-round bound trajectory,
logged as one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

from ..middleware.cost import AdmissionPolicy
from ..obs import Observability
from ..services.simulated import LatencyModel
from ..store import open_store
from .service import QueryService
from .wire import QueryServer

__all__ = ["main"]


def _slow_query_line(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def build_server(args: argparse.Namespace) -> QueryServer:
    latency = None
    if args.latency or args.jitter:
        latency = LatencyModel(
            base=args.latency, jitter=args.jitter, seed=args.latency_seed
        )
    obs = None
    if not args.no_obs:
        obs = Observability(
            slow_query_threshold=args.slow_query_threshold,
            slow_query_sink=(
                _slow_query_line
                if args.slow_query_threshold is not None
                else None
            ),
        )
    db = open_store(
        Path(args.store),
        cache_bytes=args.store_cache_mb * 1024 * 1024,
        page_rows=args.store_page_rows,
        obs=obs,
    )
    service = QueryService(
        database=db,
        latency=latency,
        obs=obs,
        admission=AdmissionPolicy(
            max_active=args.max_active,
            max_queued=args.max_queued,
            default_deadline_s=args.default_deadline,
        ),
        share_scans=not args.no_share_scans,
        batch_size=args.batch_size,
        readahead_pages=args.readahead_pages,
    )
    return QueryServer(
        service,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
    )


async def _serve(args: argparse.Namespace) -> None:
    server = build_server(args)
    await server.start()
    exporter = None
    obs = server.service.obs
    if args.metrics_port is not None:
        if obs is None:
            raise SystemExit("--metrics-port requires the obs plane "
                             "(drop --no-obs)")
        exporter = obs.exporter(host=args.host, port=args.metrics_port)
        await exporter.astart()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    host, port = server.address
    print(f"LISTENING {host} {port}", flush=True)
    if exporter is not None:
        print(f"METRICS {exporter.host} {exporter.port}", flush=True)
    try:
        await stop.wait()
        await server.service.adrain(args.drain_timeout)
        await server.drain(args.drain_timeout)
    finally:
        if exporter is not None:
            await exporter.aclose()
        await server.aclose()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument(
        "--store",
        required=True,
        help="v3 store written by save_store, served out-of-core via "
        "np.memmap behind an LRU page cache (legacy .npz files are "
        "detected and loaded into RAM)",
    )
    parser.add_argument(
        "--store-cache-mb",
        type=int,
        default=64,
        help="LRU page-cache capacity for --store, megabytes",
    )
    parser.add_argument(
        "--store-page-rows",
        type=int,
        default=4096,
        help="rows per cache page for --store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    parser.add_argument(
        "--max-active",
        type=int,
        default=4,
        help="queries running concurrently (worker threads)",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=256,
        help="admission queue bound; beyond it submissions are refused",
    )
    parser.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="default per-query wall-clock budget, seconds",
    )
    parser.add_argument(
        "--no-share-scans",
        action="store_true",
        help="private sorted cursors per query (the benchmark control)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=64, help="scan page size"
    )
    parser.add_argument(
        "--readahead-pages",
        type=int,
        default=2,
        help="pages the shared fetcher keeps ahead of demand",
    )
    parser.add_argument(
        "--latency",
        type=float,
        default=0.0,
        help="server-side per-call latency base, seconds",
    )
    parser.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="server-side per-call latency jitter, seconds",
    )
    parser.add_argument("--latency-seed", type=int, default=0)
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="server-wide cap on in-flight wire requests",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds SIGTERM waits for in-flight queries to drain",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="run without the observability plane (no metrics/traces)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="bind a Prometheus-text HTTP endpoint on this port "
        "(0 picks a free one); prints 'METRICS <host> <port>'",
    )
    parser.add_argument(
        "--slow-query-threshold",
        type=float,
        default=None,
        help="retain queries slower than this many seconds with their "
        "per-round bound trajectory (one JSON line on stderr each)",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
