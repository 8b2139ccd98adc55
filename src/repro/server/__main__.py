"""CLI entry point: the one daemon, serving both the sorted lists and
the queries over them.

::

    PYTHONPATH=src python -m repro.server --store db.store --port 0

Opens the database written by :func:`~repro.store.save_store`
out-of-core: the v3 store is memory-mapped read-only and its resident
pages are bounded by ``--store-cache-mb`` through the store's
residency valve (whose check/release counters ride the obs plane and
the ``stats`` wire op's ``store`` key); a legacy v1/v2 ``.npz``
archive is recognised and loaded into RAM instead.  It mounts a
:class:`~repro.server.service.QueryService` over that database on a
:class:`~repro.server.wire.QueryServer`, binds, prints one readiness
line ``LISTENING <host> <port>`` (flushed), and serves until killed.

Clients reach the same port two ways: as the middleware (whole
queries -- :class:`~repro.server.QueryServiceClient`), which run the
columnar engines directly on the database, or as the paper's sorted
lists (the ``meta``/``page``/``random``/``run_page`` source ops --
:func:`~repro.services.network.network_services`,
:func:`~repro.services.network.network_shard_runs`), answered by
slicing the store's sorted orders (and, when the store is sharded,
its per-shard runs) at op time -- nothing is built.  ``--latency`` /
``--jitter`` / ``--latency-seed`` give those source ops a seeded
server-side latency model; queries never pay it.  SIGTERM is
graceful: stop accepting, drain in-flight requests (bounded by
``--drain-timeout``), tear down the service, exit 0.

``--max-active`` / ``--max-queued`` set the admission policy.

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
        help="v3 store written by save_store, served out-of-core from "
        "a read-only memory map (legacy .npz files are detected and "
        "loaded into RAM)",
    )
    parser.add_argument(
        "--store-cache-mb",
        type=int,
        default=64,
        help="residency budget for --store, megabytes: resident pages "
        "of the map past it are handed back to the kernel",
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
        "--latency",
        type=float,
        default=0.0,
        help="per-call latency base of the served source ops, seconds "
        "(queries do not pay it)",
    )
    parser.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="per-call latency jitter of the served source ops, seconds",
    )
    parser.add_argument(
        "--latency-seed",
        type=int,
        default=0,
        help="seed of the source-op latency model's jitter",
    )
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
