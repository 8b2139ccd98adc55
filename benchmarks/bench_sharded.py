"""Sharded backend benchmark: merge-cursor overhead vs the single-node
columnar backend.

Builds the same uniform workload as a :class:`ColumnarDatabase` and as
:class:`ShardedDatabase` instances with ``S`` in {1, 2, 4, 8} shards,
then times, per shard count:

* ``build_seconds`` -- constructing the backend (the sharded build runs
  one stable argsort *per shard slice* instead of one global argsort;
  this is the part a distributed loader parallelises);
* ``merge_seconds`` -- materialising every list's merged global order
  through the per-list k-way merge cursors (the lazy cost the first
  sorted access pays);
* per-algorithm query times for TA, NRA, CA and Stream-Combine on the
  warm (merged) backend, verified on the fly to return results and
  access accounting identical to the columnar run -- the differential
  suite's invariant.

Writes ``BENCH_sharded.json`` at the repository root.  Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded.py           # full
    PYTHONPATH=src python benchmarks/bench_sharded.py --smoke   # CI

The full run uses N=100k, m=5 with k=10 under ``average`` (CA with
``cR/cS = 5``); ``--smoke`` shrinks N so the plumbing is exercised in
seconds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation.standard import AVERAGE  # noqa: E402
from repro.core.ca import CombinedAlgorithm  # noqa: E402
from repro.core.nra import NoRandomAccessAlgorithm  # noqa: E402
from repro.core.stream_combine import StreamCombine  # noqa: E402
from repro.core.ta import ThresholdAlgorithm  # noqa: E402
from repro.middleware.cost import UNIT_COSTS, CostModel  # noqa: E402
from repro.middleware.database import (  # noqa: E402
    ColumnarDatabase,
    ShardedDatabase,
)
from _util import report_main  # noqa: E402

SEED = 20260729
K = 10
SHARD_COUNTS = [1, 2, 4, 8]
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"
#: no bars: the sharded sweep records costs, it gates nothing
GATE = None
CA_COSTS = CostModel(1.0, 5.0)


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


def _time_run(algo, db, repeats, cost_model):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = algo.run_on(db, AVERAGE, K, cost_model=cost_model)
        best = min(best, time.perf_counter() - start)
    return best, result


def _warm_merge(db: ShardedDatabase) -> float:
    start = time.perf_counter()
    for i in range(db.num_lists):
        db._order_rows[i]
    return time.perf_counter() - start


def run(smoke: bool) -> dict:
    n, m = (5_000, 3) if smoke else (100_000, 5)
    repeats = 1 if smoke else 3
    rng = np.random.default_rng(SEED)
    grades = rng.random((n, m))

    start = time.perf_counter()
    columnar = ColumnarDatabase.from_array(grades)
    columnar_build = time.perf_counter() - start

    contenders = [
        (ThresholdAlgorithm(), UNIT_COSTS),
        (NoRandomAccessAlgorithm(), UNIT_COSTS),
        (CombinedAlgorithm(), CA_COSTS),
        (StreamCombine(), UNIT_COSTS),
    ]
    baseline = {}
    for algo, cost_model in contenders:
        seconds, result = _time_run(algo, columnar, repeats, cost_model)
        baseline[algo.name] = (seconds, _signature(result))

    report = {
        "seed": SEED,
        "N": n,
        "m": m,
        "k": K,
        "aggregation": AVERAGE.name,
        "ca_costs": {"cS": CA_COSTS.cs, "cR": CA_COSTS.cr},
        "smoke": smoke,
        "repeats": repeats,
        "columnar": {
            "build_seconds": round(columnar_build, 6),
            "queries": {
                name: round(seconds, 6)
                for name, (seconds, _) in baseline.items()
            },
        },
        "sharded": [],
    }
    for num_shards in SHARD_COUNTS:
        start = time.perf_counter()
        sharded = ShardedDatabase.from_array(grades, num_shards=num_shards)
        build = time.perf_counter() - start
        merge = _warm_merge(sharded)
        entry = {
            "num_shards": num_shards,
            "build_seconds": round(build, 6),
            "merge_seconds": round(merge, 6),
            "queries": {},
        }
        for algo, cost_model in contenders:
            seconds, result = _time_run(algo, sharded, repeats, cost_model)
            base_seconds, base_sig = baseline[algo.name]
            if _signature(result) != base_sig:
                raise AssertionError(
                    f"backend divergence for {algo.name} at S={num_shards}: "
                    "results or access counts differ between columnar and "
                    "sharded execution"
                )
            entry["queries"][algo.name] = {
                "seconds": round(seconds, 6),
                "overhead_vs_columnar": round(seconds / base_seconds, 3),
            }
            print(
                f"S={num_shards}  {algo.name:13s} "
                f"sharded={seconds:8.4f}s columnar={base_seconds:8.4f}s "
                f"overhead={seconds / base_seconds:5.2f}x  (accounting "
                "identical)"
            )
        report["sharded"].append(entry)
        print(
            f"S={num_shards}  build={build:8.4f}s (columnar "
            f"{columnar_build:.4f}s)  merge={merge:8.4f}s"
        )
    return report


if __name__ == "__main__":
    raise SystemExit(report_main(__doc__, OUTPUT, GATE, run))
