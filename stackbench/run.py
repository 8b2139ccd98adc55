"""Stack benchmark: one query mix through the engines, the out-of-core
store, the socket daemon and the write plane.

::

    python3 stackbench/run.py --workload engine-ram --seed 1 --seconds 20 --trace 0

Every workload runs the fixed query mix in ``common.MIX`` over several
seeded datasets of uniform grades (m=4), checks every answer -- items,
exact grades, ``AccessStats``, halt reason, and for service queries the
bill -- against the scalar ``Database`` reference loop, and prints each
metric as ``name value unit`` followed by one JSON result line.  Times
are quoted at a nominal host speed, probed with the program stopped
(see ``prober.py``); the measured times are printed beside them.

Workloads (closed loops, one client):

``engine-ram``  bare ``run_on`` over in-RAM ``ColumnarDatabase``s,
                6 x 20k rows: the control on which a service, store or
                transport change shows no change.
``store-ooc``   the same loop and rows over ``open_store`` in a fresh
                process, page cache half the grade matrix: TA's random
                probes thrash it while NRA's sequential prefix does not.
``service-socket``  one connection from an asyncio client to
                ``python -m repro.server --store`` (8 x 2k rows, one
                list set each): what services, server, transport and
                the daemon add.
``service-rw``  one client thread alternating a query with a seeded
                update/insert/delete through an embedded
                ``QueryService`` over a ``MutableColumnarDatabase``
                (4 x 2k rows) with a standing view subscribed and
                drained.

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` runs the traced layer sweep instead
(see ``layers.py``): a fixed amount of work through every layer on the
workload's rows, spans written as Chrome trace-event JSON, per-layer
metrics and the layer-overhead table printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from prober import HostSpeed  # noqa: E402

#: one run must exit within this many seconds, whatever happens
RUN_BUDGET_S = 170.0


class Workload(NamedTuple):
    """Sizes of one workload; why each exists is in ``BENCHMARK.json``."""

    name: str
    role: str  # the worker role that runs it
    n: int  # rows per dataset
    datasets: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("engine-ram", "engine", 20_000, 6),
        Workload("store-ooc", "store", 20_000, 6),
        Workload("service-socket", "socket", 2_000, 8),
        Workload("service-rw", "rw", 2_000, 4),
    )
}

#: rows per dataset at ``--tiny`` (the smoke test)
TINY_N = 800

#: per-operation bound: an answer later than this counts as failed
OP_BOUND_S = 30.0

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 9


# ----------------------------------------------------------------------
# the parent side: inputs, oracle, child process, metrics
# ----------------------------------------------------------------------
def run_child(job: dict, tmp: Path, deadline: float, cpu: int | None = None) -> dict:
    """Run one worker job in a fresh interpreter; its report."""
    job_path = tmp / f"job-{job['role']}.json"
    job_path.write_text(json.dumps(job))
    proc = common.spawn(
        [sys.executable, str(common.BENCH_DIR / "worker.py"), str(job_path)],
        cpu=cpu,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{job['role']} worker overran the run budget")
    finally:
        common.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{job['role']} worker failed ({proc.returncode}):\n{err[-4000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def persist_stores(matrices, tmp: Path, repeats: int) -> tuple[list[str], list[float]]:
    """Build each columnar database and persist it as a v3 store,
    ``repeats`` times over (timed); the last files are the ones served."""
    from repro import ColumnarDatabase
    from repro.store import save_store

    paths = [tmp / f"db{i}.store" for i in range(len(matrices))]
    times = []
    # on the query processes' CPU, whose speed the probe reads
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {common.QUERY_CPU})
    try:
        with HostSpeed(common.QUERY_CPU, [os.getpid()]) as speed:
            for _ in range(repeats):
                for path in paths:
                    path.unlink(missing_ok=True)
                speed.sample()
                start = time.perf_counter()
                for path, matrix in zip(paths, matrices):
                    save_store(ColumnarDatabase.from_array(matrix), path)
                times.append((time.perf_counter() - start) * speed.factor())
    finally:
        os.sched_setaffinity(0, affinity)
    return [str(p) for p in paths], times


def family_latency(latency_ms: dict, family: str) -> float:
    """Mean over the family's (dataset, query) pairs of each pair's
    median latency.  A median pooled over, say, TA-average and TA-min
    would sit on the gap between their two clusters and jump between
    them run to run."""
    return statistics.fmean(
        common.median(values)
        for key, values in latency_ms.items()
        if common.family_of(key) == family
    )


def end_to_end(workload: Workload, args, deadline: float) -> tuple[dict, dict]:
    """Run the timed workload; (metrics, report)."""
    import numpy as np

    n = TINY_N if args.tiny else workload.n
    inputs = common.make_inputs(args.seed, n, workload.datasets)
    with common.scratch_dir() as tmp:
        job = {
            "role": workload.role,
            "seed": args.seed,
            "seconds": args.seconds,
            "datasets": workload.datasets,
            "op_bound": OP_BOUND_S,
            "setup_repeats": SETUP_REPEATS,
            "corrupt": args.corrupt,
            "daemon_log": str(tmp / "daemon.log"),
            "inputs": str(tmp / "inputs.npy"),
        }
        # socket and rw serve every dataset from one wide database, one
        # list set per dataset, selected per query
        wide = np.hstack(list(inputs))
        persist_s = []
        if workload.role == "store":
            job["stores"], persist_s = persist_stores(inputs, tmp, SETUP_REPEATS)
            job["cache_bytes"] = inputs[0].nbytes // 2
        elif workload.role == "socket":
            stores, persist_s = persist_stores([wide], tmp, SETUP_REPEATS)
            job["store"] = stores[0]
        np.save(job["inputs"], wide if workload.role == "rw" else inputs)
        if workload.role != "rw":  # rw builds its oracle per state, after
            job["reference"] = common.dataset_references(inputs)
        report = run_child(
            job, tmp, deadline,
            cpu=None if workload.role == "socket" else common.QUERY_CPU,
        )
    setup = report.get("setup_s") or report.get("open_s")
    setup_s = common.median(setup) + (common.median(persist_s) if persist_s else 0.0)
    metrics = {
        "throughput_qps": (common.median(report["slice_rates"]), "queries/s"),
    }
    for family in common.FAMILIES:
        metrics[f"{family}_p50_ms"] = (
            family_latency(report["latency_ms"], family), "ms"
        )
    metrics["rss_peak_mib"] = (report["rss_peak_kib"] / 1024.0, "MiB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics, report


def print_report(workload: Workload, metrics: dict, report: dict, n: int) -> None:
    tally = report["tally"]
    print(
        f"# workload {workload.name}: {workload.datasets} datasets of "
        f"N={n} m={common.M}"
    )
    counts = {f: 0 for f in common.FAMILIES}
    for key, values in report["latency_ms"].items():
        counts[common.family_of(key)] += len(values)
    print(
        f"# {report['completed']} verified queries in "
        f"{report['elapsed_s']:.2f}s; samples per family {counts}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    pooled = [ms for values in report["latency_ms"].values() for ms in values]
    measured = ", ".join(
        f"{f} {family_latency(report['raw_latency_ms'], f):.4g}"
        for f in common.FAMILIES
    )
    print(
        f"# as measured (ms): {measured}; host speed factor "
        f"{report['host_factor']:.3f}"
    )
    # the pooled tail, only when at least ten samples lie beyond it
    if len(pooled) >= 100:
        print(
            f"latency_p90_ms {common.percentile(pooled, 90):.6g} ms "
            f"({len(pooled)} queries)"
        )
    # CPU seconds are as measured, so they swing with the host's speed
    # and are printed, not gated
    print(f"cpu_s_per_query {common.median(report['slice_cpu_s']):.6g} s")
    attempted = max(tally["attempted"], 1)
    print(
        f"error_rate {tally['failed'] / attempted:.6g} ratio "
        f"({tally['failed']} of {tally['attempted']} operations; "
        f"{tally['mismatched']} wrong answers)"
    )
    if report.get("mutate_ms"):
        print(
            f"mutate_p50_ms {common.median(report['mutate_ms']):.6g} ms "
            f"({len(report['mutate_ms'])} mutations, "
            f"{report['view_events']} view events drained)"
        )
    if report.get("cache"):
        print(f"# page cache {report['cache']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="where the traced run writes its Chrome trace-event JSON "
        "(default: .stackbench-out/ in the checkout)",
    )
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (the smoke test)"
    )
    # smoke-test hook: corrupt the first answer, which must then count
    # as failed
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        common.import_repro()
    except FileNotFoundError as exc:
        print(f"stackbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    n = TINY_N if args.tiny else workload.n
    if args.trace:
        import layers

        metrics, tally = layers.sweep(workload, args, deadline)
    else:
        metrics, report = end_to_end(workload, args, deadline)
        print_report(workload, metrics, report, n)
        tally = report["tally"]
    result = {
        "correct": tally["mismatched"] == 0,
        "attempted": max(int(tally["attempted"]), 1),
        "failed": int(tally["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
