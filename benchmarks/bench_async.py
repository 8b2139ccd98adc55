"""Async overlap benchmark: concurrent remote sessions and shard
streams vs the sequential round-robin baseline.

The paper's middleware talks to ``m`` autonomous services; at realistic
per-call latencies (1-5 ms here) the wall-clock of a run is dominated
by waiting, not compute.  This benchmark measures the two places the
async subsystem overlaps that waiting:

``session`` runs
    NRA over an :class:`~repro.services.session.AsyncAccessSession`
    (all ``m`` sorted streams prefetch-pipelined concurrently) vs the
    same session with pipelining disabled (``prefetch_pages=0``,
    lazy start) -- the sequential fetch-on-demand client.  Both runs
    are verified to return identical items and ``AccessStats``; only
    wall-clock may differ.

``streams`` runs
    Draining a :class:`~repro.middleware.database.ShardedDatabase`'s
    ``S x m`` per-shard run streams into
    :class:`~repro.middleware.database.ListMergeCursor` k-way merges
    (:func:`~repro.services.assemble.fetch_merged_orders`): all streams
    concurrently vs sequential round-robin, verified bit-identical to
    the backend's own merged orders.

Writes ``BENCH_async.json`` at the repository root; the committed full
run must show >= 2x overlap speedup everywhere (``GATE`` below,
stamped into the report and held by ``check_bench_regression.py``,
which also gates CI smoke runs against the committed speedups).  Run
directly::

    PYTHONPATH=src python benchmarks/bench_async.py           # full
    PYTHONPATH=src python benchmarks/bench_async.py --smoke   # CI
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation.standard import AVERAGE  # noqa: E402
from repro.core.nra import NoRandomAccessAlgorithm  # noqa: E402
from repro.middleware.database import Database  # noqa: E402
from repro.services import (  # noqa: E402
    AsyncAccessSession,
    LatencyModel,
    fetch_merged_orders,
    services_for_database,
    shard_run_services,
)
from _util import report_main  # noqa: E402

SEED = 20260729
K = 10
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_async.json"
GATE = {
    "key": ["part", "config"],
    "min": {"speedup": 2.0},
    "smoke_min": {"speedup": 1.2},
    "within": {"speedup": 2.0},
    "overlap": True,
}


def _signature(result):
    stats = result.stats
    return (
        [(item.obj, item.grade, item.lower_bound, item.upper_bound)
         for item in result.items],
        stats.sorted_accesses,
        stats.random_accesses,
        stats.sorted_by_list,
        stats.random_by_list,
        stats.depth,
        result.halt_reason,
        result.rounds,
    )


def _session_run(db, latency_s, batch_size, overlapped, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        services = services_for_database(
            db, latency=LatencyModel(latency_s, 0.0, seed=SEED)
        )
        with AsyncAccessSession(
            services,
            batch_size=batch_size,
            prefetch_pages=4 if overlapped else 0,
            eager=overlapped,
        ) as session:
            start = time.perf_counter()
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, K)
            best = min(best, time.perf_counter() - start)
    return best, result


def _stream_run(sharded, latency_s, batch_size, overlapped, repeats):
    best = float("inf")
    merged = None
    for _ in range(repeats):
        grid = shard_run_services(
            sharded, latency=LatencyModel(latency_s, 0.0, seed=SEED)
        )
        start = time.perf_counter()
        merged = fetch_merged_orders(
            grid, batch_size=batch_size, sequential=not overlapped
        )
        best = min(best, time.perf_counter() - start)
    return best, merged


def run(smoke: bool) -> dict:
    if smoke:
        session_grid = [(800, 4, 64, 0.002)]
        stream_grid = [(8_000, 5, 4, 256, 0.002)]
        repeats = 1
    else:
        session_grid = [
            (4_000, 4, 64, 0.001),
            (4_000, 4, 64, 0.002),
            (4_000, 4, 64, 0.005),
            (800, 4, 64, 0.002),
        ]
        stream_grid = [
            (60_000, 5, 4, 512, 0.001),
            (60_000, 5, 4, 512, 0.005),
            (60_000, 5, 8, 512, 0.002),
            (8_000, 5, 4, 256, 0.002),
        ]
        repeats = 3
    rng = np.random.default_rng(SEED)
    report = {
        "seed": SEED,
        "k": K,
        "aggregation": AVERAGE.name,
        "smoke": smoke,
        "repeats": repeats,
        "runs": [],
    }

    for n, m, batch, latency in session_grid:
        db = Database.from_array(rng.random((n, m)))
        reference = NoRandomAccessAlgorithm().run_on(db, AVERAGE, K)
        seq_s, seq_res = _session_run(db, latency, batch, False, repeats)
        ovl_s, ovl_res = _session_run(db, latency, batch, True, repeats)
        if not (
            _signature(seq_res)
            == _signature(ovl_res)
            == _signature(reference)
        ):
            raise AssertionError(
                f"async session divergence at N={n} m={m}: results or "
                "accounting differ from the synchronous reference"
            )
        entry = {
            "part": "session",
            "config": f"NRA-N{n}-m{m}-b{batch}-lat{latency * 1e3:g}ms",
            "N": n,
            "m": m,
            "batch_size": batch,
            "latency_ms": latency * 1e3,
            "sequential_seconds": round(seq_s, 6),
            "overlapped_seconds": round(ovl_s, 6),
            "speedup": round(seq_s / ovl_s, 3),
        }
        report["runs"].append(entry)
        print(
            f"session {entry['config']:28s} sequential={seq_s:7.3f}s "
            f"overlapped={ovl_s:7.3f}s  speedup={entry['speedup']:5.2f}x "
            "(accounting identical)"
        )

    for n, m, shards, batch, latency in stream_grid:
        sharded = Database.from_array(rng.random((n, m))).to_sharded(shards)
        seq_s, seq_merged = _stream_run(
            sharded, latency, batch, False, repeats
        )
        ovl_s, ovl_merged = _stream_run(
            sharded, latency, batch, True, repeats
        )
        for i in range(m):
            expected_rows = np.asarray(sharded._order_rows[i])
            expected_grades = np.asarray(sharded._order_grades[i])
            for label, merged in (("seq", seq_merged), ("ovl", ovl_merged)):
                if not (
                    np.array_equal(merged[i][0], expected_rows)
                    and np.array_equal(merged[i][1], expected_grades)
                ):
                    raise AssertionError(
                        f"merged order divergence ({label}) at N={n} "
                        f"S={shards} list {i}"
                    )
        entry = {
            "part": "streams",
            "config": f"S{shards}-N{n}-m{m}-b{batch}-lat{latency * 1e3:g}ms",
            "N": n,
            "m": m,
            "num_shards": shards,
            "batch_size": batch,
            "latency_ms": latency * 1e3,
            "sequential_seconds": round(seq_s, 6),
            "overlapped_seconds": round(ovl_s, 6),
            "speedup": round(seq_s / ovl_s, 3),
        }
        report["runs"].append(entry)
        print(
            f"streams {entry['config']:28s} sequential={seq_s:7.3f}s "
            f"overlapped={ovl_s:7.3f}s  speedup={entry['speedup']:5.2f}x "
            "(merge bit-identical)"
        )
    return report


if __name__ == "__main__":
    raise SystemExit(report_main(__doc__, OUTPUT, GATE, run))
