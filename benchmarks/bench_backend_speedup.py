"""Backend speedup benchmark: scalar vs columnar execution engine.

Times TA, NRA, CA and Stream-Combine over identical workloads on the
two database backends (:class:`repro.middleware.database.Database` vs
:class:`repro.middleware.database.ColumnarDatabase`), verifies on the
fly that both backends return identical results and access accounting
(the same invariant the differential test suite enforces), and writes
the measurements to ``BENCH_backend.json`` at the repository root so
future performance work has a trajectory to beat.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py           # full
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py --smoke   # CI

The full grid is N in {10k, 100k} x m in {2, 5} with k=10 under the
``average`` aggregation on uniform random grades (seeded); CA runs with
``cR/cS = 5`` (so ``h = 5``, the regime it was designed for).
``--smoke`` runs only the N=10k half of the grid, in seconds -- the
same configurations the committed full run covers, so
``check_bench_regression.py`` can hold the smoke speedups to the
committed baseline's ``gate`` block (``GATE`` below).
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
from repro.middleware.database import ColumnarDatabase, Database  # noqa: E402
from _util import report_main  # noqa: E402

SEED = 20260729
K = 10
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_backend.json"
GATE = {
    "key": ["algorithm", "N", "m"],
    "within": {"speedup": 2.0},
    "overlap": True,
}
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


def _time_run(algo, db, aggregation, k, repeats, cost_model):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = algo.run_on(db, aggregation, k, cost_model=cost_model)
        best = min(best, time.perf_counter() - start)
    return best, result


def run(smoke: bool) -> dict:
    if smoke:
        # the committed full grid's small half: overlapping (algorithm,
        # N, m) configurations let the CI regression gate compare the
        # smoke speedups against BENCH_backend.json
        grid = [(10_000, 2), (10_000, 5)]
        repeats = 3
    else:
        grid = [(10_000, 2), (10_000, 5), (100_000, 2), (100_000, 5)]
        repeats = 3
    rng = np.random.default_rng(SEED)
    report = {
        "seed": SEED,
        "k": K,
        "aggregation": AVERAGE.name,
        "ca_costs": {"cS": CA_COSTS.cs, "cR": CA_COSTS.cr},
        "smoke": smoke,
        "repeats": repeats,
        "runs": [],
    }
    for n, m in grid:
        grades = rng.random((n, m))
        scalar_db = Database.from_array(grades)
        columnar_db = ColumnarDatabase.from_array(grades)
        contenders = [
            (ThresholdAlgorithm(), UNIT_COSTS),
            (NoRandomAccessAlgorithm(), UNIT_COSTS),
            (CombinedAlgorithm(), CA_COSTS),
            (StreamCombine(), UNIT_COSTS),
        ]
        for algo, cost_model in contenders:
            scalar_s, scalar_res = _time_run(
                algo, scalar_db, AVERAGE, K, repeats, cost_model
            )
            columnar_s, columnar_res = _time_run(
                algo, columnar_db, AVERAGE, K, repeats, cost_model
            )
            if _signature(scalar_res) != _signature(columnar_res):
                raise AssertionError(
                    f"backend divergence for {algo.name} at N={n} m={m}: "
                    "results or access counts differ between scalar and "
                    "columnar execution"
                )
            entry = {
                "algorithm": algo.name,
                "N": n,
                "m": m,
                "scalar_seconds": round(scalar_s, 6),
                "columnar_seconds": round(columnar_s, 6),
                "speedup": round(scalar_s / columnar_s, 2),
                "sorted_accesses": scalar_res.stats.sorted_accesses,
                "random_accesses": scalar_res.stats.random_accesses,
                "depth": scalar_res.depth,
            }
            report["runs"].append(entry)
            print(
                f"{algo.name:13s} N={n:>7d} m={m}: "
                f"scalar={scalar_s:8.3f}s columnar={columnar_s:8.3f}s "
                f"speedup={entry['speedup']:6.2f}x  (accounting identical)"
            )
    return report


if __name__ == "__main__":
    raise SystemExit(report_main(__doc__, OUTPUT, GATE, run))
