"""Query-service scan-sharing benchmark: one concurrent top-k workload,
two arms of the same service.

``server`` runs
    ``Q`` concurrent NRA queries (mixed ``k`` and aggregation, all over
    the same sorted lists) through an embedded
    :class:`~repro.server.service.QueryService` built over
    ``services=services_for_database(db, latency=...)``: simulated
    sources with a per-page service time -- the paper's autonomous
    subsystems.  (A ``database=`` service would run the columnar
    engines on the database directly, with no scans to share.)
    The *shared* arm (``share_scans=True``, the default) runs them
    through the :class:`~repro.server.scancache.ScanCache`: one sorted
    cursor per list, each page fetched once, every attached query
    charged exactly its own consumed prefix.  The *private* arm
    (``share_scans=False``) is the identical service with a private
    scan per query -- the per-query-session control.

Every query in both arms is verified **bit-identical** (items, bounds,
halting, full ``AccessStats``) to its solo scalar-reference run, and
every bill must charge exactly the query's own consumption -- scan
sharing is a throughput optimisation, never an accounting one.

The headline number is ``speedup`` = private wall seconds / shared
wall seconds for the whole workload (equivalently the throughput
ratio); per-query completion latency percentiles ride along.  The
committed full run must hold >= 1.5x on every configuration, enforced
by ``check_bench_regression.py --server-baseline``, which also gates
CI smoke runs against the committed speedups.  Run directly::

    PYTHONPATH=src python benchmarks/bench_server.py           # full
    PYTHONPATH=src python benchmarks/bench_server.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.middleware.cost import AdmissionPolicy  # noqa: E402
from repro.middleware.database import Database  # noqa: E402
from repro.server import QueryService, QuerySpec  # noqa: E402
from repro.services import LatencyModel, services_for_database  # noqa: E402

SEED = 20260808
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: the workload template: (algorithm, aggregation, k), cycled over Q
#: slots.  All NRA -- sorted-stream dominated, so the shared cursor is
#: what the arm comparison isolates; mixed k/aggregation so concurrent
#: queries demand *different* prefix depths of the same lists.
WORKLOAD = [
    ("nra", "average", 10),
    ("nra", "sum", 5),
    ("nra", "min", 20),
    ("nra", "average", 3),
]


def _signature(result):
    stats = result.stats
    return (
        [(item.obj, item.grade, item.lower_bound, item.upper_bound)
         for item in result.items],
        stats.sorted_accesses,
        stats.random_accesses,
        stats.sorted_by_list,
        stats.random_by_list,
        stats.middleware_cost,
        stats.depth,
        result.halt_reason,
        result.rounds,
    )


def _specs(queries: int) -> list[QuerySpec]:
    return [
        QuerySpec(algorithm=alg, aggregation=agg, k=k)
        for alg, agg, k in (
            WORKLOAD[i % len(WORKLOAD)] for i in range(queries)
        )
    ]


def _references(db: Database, specs: list[QuerySpec]) -> dict:
    """Solo scalar-reference signature per distinct spec."""
    out = {}
    for spec in specs:
        if spec not in out:
            result = spec.make_algorithm().run_on(
                db,
                spec.make_aggregation(),
                spec.k,
                cost_model=spec.cost_model(),
            )
            out[spec] = _signature(result)
    return out


def _arm(
    db: Database,
    specs: list[QuerySpec],
    *,
    share: bool,
    max_active: int,
    batch: int,
    latency: float,
    repeats: int,
):
    """Run the whole workload through one service arm; returns the best
    wall time and that run's per-query latencies + verification data."""
    best = float("inf")
    kept = None
    for _ in range(repeats):
        service = QueryService(
            services_for_database(db, latency=LatencyModel(base=latency)),
            admission=AdmissionPolicy(
                max_active=max_active, max_queued=len(specs) + 8
            ),
            share_scans=share,
            batch_size=batch,
        )
        with service.start():
            done = [0.0] * len(specs)
            start = time.perf_counter()
            handles = []
            for i, spec in enumerate(specs):
                handle = service.submit(spec)
                handle.future.add_done_callback(
                    lambda _f, i=i: done.__setitem__(
                        i, time.perf_counter()
                    )
                )
                handles.append(handle)
            results = [h.result(timeout=600.0) for h in handles]
            elapsed = time.perf_counter() - start
            bills = [h.bill() for h in handles]
        if elapsed < best:
            best = elapsed
            kept = (results, bills, [t - start for t in done])
    results, bills, latencies = kept
    return best, results, bills, latencies


def _verify(arm: str, config: str, specs, results, bills, references):
    for i, (spec, result, bill) in enumerate(zip(specs, results, bills)):
        if _signature(result) != references[spec]:
            raise AssertionError(
                f"{arm} arm divergence at {config} query {i}: result or "
                "accounting differs from the solo scalar reference"
            )
        stats = result.stats
        if (
            bill.outcome != "ok"
            or bill.sorted_accesses != stats.sorted_accesses
            or bill.random_accesses != stats.random_accesses
            or bill.middleware_cost != stats.middleware_cost
        ):
            raise AssertionError(
                f"{arm} arm billing divergence at {config} query {i}: "
                "the bill must charge exactly the query's own consumption"
            )


def _pct(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q))


def run(smoke: bool) -> dict:
    # (N, m, Q, max_active, batch, latency) -- the smoke grid is a
    # strict prefix of the full grid so the regression gate always has
    # shared (part, config) keys
    grid = [(400, 3, 24, 4, 8, 0.01)]
    repeats = 1
    if not smoke:
        grid.append((400, 3, 48, 4, 8, 0.01))
        repeats = 2
    rng = np.random.default_rng(SEED)
    report = {
        "seed": SEED,
        "smoke": smoke,
        "repeats": repeats,
        "workload": [list(w) for w in WORKLOAD],
        "runs": [],
    }
    for n, m, queries, max_active, batch, latency in grid:
        db = Database.from_array(rng.random((n, m)))
        specs = _specs(queries)
        references = _references(db, specs)
        config = (
            f"Q{queries}-N{n}-m{m}-a{max_active}-b{batch}"
            f"-lat{latency * 1e3:g}ms"
        )
        timings = {}
        for arm, share in (("private", False), ("shared", True)):
            seconds, results, bills, latencies = _arm(
                db,
                specs,
                share=share,
                max_active=max_active,
                batch=batch,
                latency=latency,
                repeats=repeats,
            )
            _verify(arm, config, specs, results, bills, references)
            timings[arm] = (seconds, latencies)
        private_s, private_lat = timings["private"]
        shared_s, shared_lat = timings["shared"]
        entry = {
            "part": "server",
            "config": config,
            "N": n,
            "m": m,
            "queries": queries,
            "max_active": max_active,
            "batch_size": batch,
            "latency_ms": latency * 1e3,
            "private_seconds": round(private_s, 6),
            "shared_seconds": round(shared_s, 6),
            "speedup": round(private_s / shared_s, 3),
            "private_throughput_qps": round(queries / private_s, 2),
            "shared_throughput_qps": round(queries / shared_s, 2),
            "private_p50_ms": round(_pct(private_lat, 50) * 1e3, 2),
            "private_p99_ms": round(_pct(private_lat, 99) * 1e3, 2),
            "shared_p50_ms": round(_pct(shared_lat, 50) * 1e3, 2),
            "shared_p99_ms": round(_pct(shared_lat, 99) * 1e3, 2),
        }
        report["runs"].append(entry)
        print(
            f"server {config:32s} private={private_s:7.3f}s "
            f"shared={shared_s:7.3f}s  speedup={entry['speedup']:5.2f}x  "
            f"p99 {entry['private_p99_ms']:8.1f}ms -> "
            f"{entry['shared_p99_ms']:8.1f}ms "
            "(every query bit-identical to its solo reference)"
        )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: exercises the script, not the hardware",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            f"where to write the JSON report (default: {OUTPUT}; a smoke "
            "run defaults to BENCH_server.smoke.json)"
        ),
    )
    args = parser.parse_args()
    output = args.output
    if output is None:
        output = OUTPUT.with_suffix(".smoke.json") if args.smoke else OUTPUT
    report = run(args.smoke)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
