"""Out-of-core store benchmark: query N ≫ RAM-budget with bounded RSS.

The parent process builds a dataset substantially larger than the
resident-set budget (the full run writes >= 10M rows x 4 lists, just
under 1 GiB on disk), persists it once with
:func:`~repro.store.save_store`, and then **re-executes itself as a
worker subprocess** to run the query phase -- peak RSS is a
process-lifetime high-water mark, so only a fresh process can prove
the query path's residency, untainted by the build (and the worker
reads ``VmHWM``, not ``ru_maxrss``, which fork+exec would inherit
from the build process -- see :func:`_rss_bytes`).

The worker imports the stack, records its post-import RSS baseline,
opens the store with :func:`~repro.store.open_store` under a
residency budget (``cache_bytes``: the store's valve releases the map
whenever the process's file-backed resident set grows past it, so even
a query sweeping the whole matrix keeps resident *file* pages
bounded), runs the query mix, and reports peak RSS, the anonymous and
file-backed resident growth after each query (``RssAnon`` /
``RssFile``), timings, valve counters and every result on stdout as
JSON.  The parent then

* verifies each worker result **bit-identical** to the same engine run
  on the in-RAM columnar twin it built (items and AccessStats -- the
  differential contract, enforced at 10M rows too), and
* asserts ``peak_rss - baseline_rss <= rss_budget`` and
  ``query_seconds <= query_budget`` **in-bench**: a run that busts its
  residency or query-time budget fails here, not just in CI.

The headline per-run number is ``headroom`` = store bytes / resident
delta: how many times larger the dataset is than what querying it kept
resident.  ``check_bench_regression.py`` re-validates the committed
``BENCH_store.json`` against its ``gate`` block (``GATE`` below: >= 10M
rows, budget honoured, headroom >= 2, query time under its ceiling) and
holds a CI smoke run to its own recorded budgets.  Run directly::

    PYTHONPATH=src python benchmarks/bench_store.py           # full
    PYTHONPATH=src python benchmarks/bench_store.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation import AVERAGE, MAX, SUM  # noqa: E402
from repro.core import (  # noqa: E402
    CombinedAlgorithm,
    StreamCombine,
    ThresholdAlgorithm,
)
from repro.middleware.database import ColumnarDatabase  # noqa: E402
from repro.store import open_store, save_store  # noqa: E402
from _util import report_parser, write_report  # noqa: E402

SEED = 20260808
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_store.json"
_PER_RUN_FLOORS = {"ok": True, "results_match": True}
_PER_RUN_CEILINGS = {
    "resident_delta_bytes": "rss_budget_bytes",
    "query_seconds": "query_budget_seconds",
}
#: no overlap bar: a smoke run cannot rebuild the committed dataset
GATE = {
    "key": ["config"],
    "min": _PER_RUN_FLOORS,
    "max": _PER_RUN_CEILINGS,
    "smoke_min": _PER_RUN_FLOORS,
    "smoke_max": _PER_RUN_CEILINGS,
    "any_min": {"rows": 10_000_000, "headroom": 2.0},
}

AGGREGATIONS = {"average": AVERAGE, "sum": SUM, "max": MAX}
#: query mixes: (label, algorithm factory, aggregation name, k).
#: The smoke mix exercises every engine family over the store.  The
#: full-scale mix keeps only TA: MAX is the shallow paper special case
#: and AVERAGE at uniform grades is the deep one (TA descends ~2% of
#: 10M rows and random-accesses a scatter across most matrix pages --
#: the case that *needs* the residency budget).  StreamCombine and
#: CA are excluded at full scale deliberately: their NRA-family
#: object buffers grow with the number of *distinct objects seen*
#: (hundreds of MiB at 10M rows), an engine-side working set no store
#: can bound -- and CA's runtime at this depth is tens of minutes.
QUERY_MIXES = {
    "smoke": [
        ("ta", lambda: ThresholdAlgorithm(), "max", 10),
        ("ta", lambda: ThresholdAlgorithm(), "average", 10),
        ("stream-combine", lambda: StreamCombine(), "average", 10),
        ("ca", lambda: CombinedAlgorithm(), "sum", 5),
    ],
    "full": [
        ("ta", lambda: ThresholdAlgorithm(), "max", 10),
        ("ta", lambda: ThresholdAlgorithm(), "average", 10),
    ],
}


def _proc_status() -> dict[str, int]:
    """``/proc/self/status``'s memory lines, in bytes (empty where
    ``/proc`` is unavailable)."""
    try:
        with open("/proc/self/status") as status:
            return {
                name: int(value.split()[0]) * 1024
                for name, value in (line.split(":", 1) for line in status)
                if value.strip().endswith("kB")
            }
    except OSError:
        return {}


def _rss_bytes() -> int:
    # prefer /proc VmHWM: ``ru_maxrss`` lives in the signal struct and
    # is *inherited across fork+exec* on Linux, so a worker spawned by
    # a parent that just built a multi-GiB dataset would report the
    # parent's high-water mark as its own baseline (delta 0 -- the
    # budget assertion would pass vacuously).  VmHWM is per-mm and
    # resets on exec, so it measures this process alone.
    hwm = _proc_status().get("VmHWM")
    if hwm is not None:
        return hwm
    # ru_maxrss is kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _run_queries(db, queries, baseline: dict[str, int]) -> list[dict]:
    runs = []
    for label, factory, agg_name, k in queries:
        start = time.perf_counter()
        result = factory().run_on(db, AGGREGATIONS[agg_name], k)
        seconds = time.perf_counter() - start
        status = _proc_status()
        stats = result.stats
        runs.append(
            {
                "algorithm": label,
                "aggregation": agg_name,
                "k": k,
                "seconds": round(seconds, 6),
                "items": [
                    [int(item.obj), float(item.grade)]
                    for item in result.items
                ],
                "sorted_accesses": int(stats.sorted_accesses),
                "random_accesses": int(stats.random_accesses),
                "middleware_cost": float(stats.middleware_cost),
                "depth": int(stats.depth),
                # resident growth when the query finished, split into
                # the engine's own allocations and the store's pages
                "rss_anon_delta_bytes": status.get("RssAnon", 0)
                - baseline.get("RssAnon", 0),
                "rss_file_delta_bytes": status.get("RssFile", 0)
                - baseline.get("RssFile", 0),
            }
        )
    return runs


def worker(args: argparse.Namespace) -> int:
    """The measured phase: open the store fresh, query it, report."""
    baseline = _rss_bytes()
    start = time.perf_counter()
    db = open_store(args.worker, cache_bytes=args.cache_bytes)
    open_seconds = time.perf_counter() - start
    runs = _run_queries(db, QUERY_MIXES[args.query_mix], _proc_status())
    report = {
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": _rss_bytes(),
        "open_seconds": round(open_seconds, 6),
        "cache": db.page_cache.snapshot(),
        "runs": runs,
    }
    print(json.dumps(report))
    return 0


def run(smoke: bool) -> dict:
    if smoke:
        n, m = 200_000, 3
        cache_bytes = 4 * 1024 * 1024
        rss_budget = 192 * 1024 * 1024
        mix = "smoke"
    else:
        n, m = 10_000_000, 4
        cache_bytes = 64 * 1024 * 1024
        rss_budget = 256 * 1024 * 1024
        mix = "full"
    # the query phase's ceiling, smoke or full: the 10M TA-average query
    # must take seconds, not minutes
    query_budget = 30.0

    rng = np.random.default_rng(SEED)
    build_start = time.perf_counter()
    matrix = rng.random((n, m))
    reference_db = ColumnarDatabase.from_array(matrix, validate=False)
    report: dict = {"seed": SEED, "smoke": smoke, "runs": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.store"
        save_store(reference_db, path)
        store_bytes = path.stat().st_size
        build_seconds = time.perf_counter() - build_start
        print(
            f"store built: N={n:,} m={m} "
            f"({store_bytes / 2**20:,.0f} MiB on disk) "
            f"in {build_seconds:.1f}s; querying in a fresh worker "
            f"(rss budget {rss_budget / 2**20:.0f} MiB)"
        )

        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--worker",
                str(path),
                "--cache-bytes",
                str(cache_bytes),
                "--query-mix",
                mix,
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"store worker failed ({proc.returncode}):\n{proc.stderr}"
            )
        measured = json.loads(proc.stdout)

    # differential check at bench scale: every worker result must be
    # bit-identical to the in-RAM columnar run of the same query
    for run_report in measured["runs"]:
        agg = AGGREGATIONS[run_report["aggregation"]]
        factory = next(
            f
            for label, f, agg_name, k in QUERY_MIXES[mix]
            if label == run_report["algorithm"]
            and agg_name == run_report["aggregation"]
            and k == run_report["k"]
        )
        expected = factory().run_on(reference_db, agg, run_report["k"])
        got = list(map(tuple, run_report["items"]))
        want = [(int(i.obj), float(i.grade)) for i in expected.items]
        if got != want or (
            run_report["sorted_accesses"],
            run_report["random_accesses"],
            run_report["middleware_cost"],
        ) != (
            expected.stats.sorted_accesses,
            expected.stats.random_accesses,
            expected.stats.middleware_cost,
        ):
            raise AssertionError(
                f"store worker diverged from the in-RAM reference on "
                f"{run_report['algorithm']}/{run_report['aggregation']}"
            )

    delta = measured["peak_rss_bytes"] - measured["baseline_rss_bytes"]
    query_seconds = sum(r["seconds"] for r in measured["runs"])
    ok = delta <= rss_budget and query_seconds <= query_budget
    entry = {
        "part": "store",
        "config": f"N{n}-m{m}-c{cache_bytes // 2**20}MB",
        "N": n,
        "m": m,
        "rows": n,
        "store_bytes": store_bytes,
        "cache_bytes": cache_bytes,
        "rss_budget_bytes": rss_budget,
        "query_budget_seconds": query_budget,
        "baseline_rss_bytes": measured["baseline_rss_bytes"],
        "peak_rss_bytes": measured["peak_rss_bytes"],
        "resident_delta_bytes": delta,
        "headroom": round(store_bytes / max(1, delta), 3),
        "build_seconds": round(build_seconds, 3),
        "open_seconds": measured["open_seconds"],
        "query_seconds": round(query_seconds, 6),
        "rss_anon_delta_bytes": max(
            r["rss_anon_delta_bytes"] for r in measured["runs"]
        ),
        "rss_file_delta_bytes": max(
            r["rss_file_delta_bytes"] for r in measured["runs"]
        ),
        "cache": measured["cache"],
        "queries": measured["runs"],
        "results_match": True,
        "ok": ok,
    }
    report["runs"].append(entry)
    for run_report in measured["runs"]:
        print(
            f"  {run_report['algorithm']:>14s}/"
            f"{run_report['aggregation']:7s} k={run_report['k']:<3d} "
            f"{run_report['seconds']:8.3f}s  "
            f"depth={run_report['depth']:>8,d}  "
            f"anon+{run_report['rss_anon_delta_bytes'] / 2**20:.1f}MiB "
            f"file+{run_report['rss_file_delta_bytes'] / 2**20:.1f}MiB  "
            "(bit-identical)"
        )
    print(
        f"store {entry['config']:22s} disk={store_bytes / 2**20:7.1f}MiB "
        f"resident-delta={delta / 2**20:6.1f}MiB "
        f"(budget {rss_budget / 2**20:.0f}MiB)  "
        f"headroom={entry['headroom']:5.2f}x  "
        f"queries={query_seconds:.2f}s (budget {query_budget:.0f}s)  "
        f"{'ok' if ok else 'OVER BUDGET'}"
    )
    # the in-bench assertion: a run that busts its residency or
    # query-time budget is a failure here, before any CI gate sees it
    if not ok:
        raise AssertionError(
            f"query phase kept {delta / 2**20:.1f} MiB resident "
            f"(budget {rss_budget / 2**20:.0f} MiB) and took "
            f"{query_seconds:.2f}s (budget {query_budget:.0f}s)"
        )
    return report


def main() -> int:
    parser = report_parser(__doc__, OUTPUT)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument(
        "--cache-bytes", type=int, default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--query-mix",
        choices=sorted(QUERY_MIXES),
        default="smoke",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args()
    if args.worker is not None:
        return worker(args)
    return write_report(run(args.smoke), args, OUTPUT, GATE)


if __name__ == "__main__":
    raise SystemExit(main())
