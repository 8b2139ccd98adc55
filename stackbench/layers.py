"""The traced run: a fixed amount of work through every layer of the
stack, on the workload's rows, with a span around each call into a
layer.

Per layer (the ``src/repro`` module each metric comes from):

``core``        bare ``run_on`` per mix query; access counts per query
``middleware``  ``ColumnarDatabase.from_array``; direct
                ``MutableColumnarDatabase`` writes with a ``LiveView``
``store``       ``open_store`` and the mix in a fresh process, page
                cache half the grade matrix
``services``    the mix through ``AsyncAccessSession`` over
                ``services_for_database`` (zero latency)
``server``      the daemon's ``queued``/``running`` spans (its obs plane
                on), scheduler and scan-cache counters, and writes
                through an embedded ``QueryService``
``transport``   client-observed latency around the server spans, and
                ``service_meta`` round trips
``obs``         the ``query_trace`` fetches, and throughput with the
                daemon's obs plane and these spans on vs off

Service-path layers run on the first ``SWEEP_ROWS`` rows (all of them
for every workload but ``store-ooc``); the store runs on all rows.
Every answer is checked against the scalar reference like in the timed
run.  The spans are written as Chrome trace-event JSON; each layer's
self time is printed and reported, and so is the table of each
algorithm's wall time through each layer over the bare engine on the
same rows.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path

import common
import run
from common import MIX, Tally
from spans import LAYERS, Spans
from worker import MutationStream, apply_direct

#: rows the service-path layers run on (the store runs on all rows)
SWEEP_ROWS = 20_000
#: engine repetitions per mix query
CORE_REPEATS = 3
#: writes per mutation probe
MUTATIONS = 12
#: service_meta round trips
RTT_PROBES = 50
#: the daemon's scan page size (its --batch-size default)
SCAN_BATCH = 64


def family_means(latency_ms: dict[str, list[float]]) -> dict[str, float]:
    """Per family: mean over its mix queries of each query's median."""
    return {f: run.family_latency(latency_ms, f) for f in common.FAMILIES}


def key(query) -> str:
    """The sweep runs on dataset 0 only."""
    return common.key(0, query)


def check(tally: Tally, result, want) -> None:
    tally.check(common.signature(result), want)


def core_layer(rows, reference, spans, tally) -> dict:
    from repro import ColumnarDatabase

    database = ColumnarDatabase.from_array(rows)
    per_query: dict[str, list[float]] = {key(q): [] for q in MIX}
    for rep in range(CORE_REPEATS):
        for q in MIX:
            start = time.perf_counter()
            with spans.span("core", "run_on", query=f"core-{rep}-{q.name}"):
                result = common.run_engine(q, database)
            per_query[key(q)].append((time.perf_counter() - start) * 1e3)
            check(tally, result, reference[key(q)])
    counts = [reference[key(q)][1] for q in MIX]
    return {
        "run_ms": family_means(per_query),
        "sorted": statistics.fmean(c[0] for c in counts),
        "random": statistics.fmean(c[1] for c in counts),
        "cost": statistics.fmean(c[4] for c in counts),
        "database": database,
    }


def middleware_layer(rows, seed, spans) -> dict:
    from repro import AVERAGE, ColumnarDatabase, LiveView, MutableColumnarDatabase
    from repro import ThresholdAlgorithm

    builds = []
    for _ in range(3):
        start = time.perf_counter()
        with spans.span("middleware", "from_array"):
            ColumnarDatabase.from_array(rows)
        builds.append(time.perf_counter() - start)
    database = MutableColumnarDatabase.from_array(rows)
    view = LiveView(database, ThresholdAlgorithm, AVERAGE, 10)
    stream = MutationStream(rows, seed)
    writes = []
    try:
        for _ in range(MUTATIONS):
            action, obj, kwargs = stream.next()
            start = time.perf_counter()
            with spans.span("middleware", action):
                apply_direct(database, action, obj, kwargs)
            writes.append((time.perf_counter() - start) * 1e3)
    finally:
        view.close()
    return {"build_s": common.median(builds), "mutation_ms": common.median(writes)}


def services_layer(database, reference, spans, tally) -> dict:
    from repro.middleware.cost import CostModel
    from repro.server import AGGREGATIONS
    from repro.services import AsyncAccessSession, services_for_database

    with spans.span("services", "services_for_database"):
        services = services_for_database(database)
    per_query: dict[str, list[float]] = {}
    calls = []
    for q in MIX:
        before = sum(s.calls for s in services)
        start = time.perf_counter()
        with spans.span("services", "AsyncAccessSession", query=f"svc-{q.name}"):
            session = AsyncAccessSession(services, CostModel(1.0, q.random_cost))
            try:
                result = common.make_algorithm(q).run(
                    session, AGGREGATIONS[q.aggregation], q.k
                )
            finally:
                session.close()
        per_query[key(q)] = [(time.perf_counter() - start) * 1e3]
        calls.append(sum(s.calls for s in services) - before)
        check(tally, result, reference[key(q)])
    return {"session_ms": family_means(per_query), "calls": statistics.fmean(calls)}


def store_layer(matrix, args, tmp, spans, tally, deadline) -> dict:
    """The store probe: persist every row, then open and query it in a
    fresh process; the in-RAM run on the same rows is the base."""
    from repro import ColumnarDatabase
    from repro.store import save_store

    reference = common.dataset_references(matrix[None])
    database = ColumnarDatabase.from_array(matrix)
    ram: dict[str, list[float]] = {}
    for q in MIX:
        start = time.perf_counter()
        result = common.run_engine(q, database)
        ram[key(q)] = [(time.perf_counter() - start) * 1e3]
        check(tally, result, reference[key(q)])
    path = tmp / "all-rows.store"
    save_store(database, path)
    del database
    job = {
        "role": "store",
        "passes": 1,
        "stores": [str(path)],
        "cache_bytes": matrix.nbytes // 2,
        "reference": reference,
        "setup_repeats": run.SETUP_REPEATS,
        "op_bound": run.OP_BOUND_S,
        "trace": True,
    }
    report = run.run_child(job, tmp, deadline, cpu=common.QUERY_CPU)
    merge_tally(tally, report["tally"])
    spans.extend(report["spans"])
    cache = report["cache"]
    return {
        "open_s": common.median(report["open_s"]),
        "hits": cache["hits"],
        "misses": cache["misses"],
        "evictions": cache["evictions"],
        "hit_rate": cache["hits"] / (cache["hits"] + cache["misses"]),
        "rss_anon_mib": report["rss_anon_kib"] / 1024.0,
        "rss_file_mib": report["rss_file_kib"] / 1024.0,
        "ram_ms": family_means(ram),
        "store_ms": family_means(report["raw_latency_ms"]),
        "rows": len(matrix),
    }


def merge_tally(tally: Tally, other: dict) -> None:
    tally.attempted += other["attempted"]
    tally.failed += other["failed"]
    tally.mismatched += other["mismatched"]


def server_layer(rows, reference, args, tmp, spans, tally, deadline) -> dict:
    """The daemon over the rows' store: one untraced and one traced
    set of mix passes on one connection."""
    from repro import ColumnarDatabase
    from repro.store import save_store

    path = tmp / "rows.store"
    save_store(ColumnarDatabase.from_array(rows), path)
    passes = 2 if args.tiny else max(1, 10_000 // len(rows))
    reports = {}
    for traced in (False, True):
        job = {
            "role": "socket",
            "passes": passes,
            "store": str(path),
            "reference": reference,
            "setup_repeats": 1,
            "op_bound": run.OP_BOUND_S,
            "daemon_obs": traced,
            "trace": traced,
            "rtt_probes": RTT_PROBES if traced else 0,
            "daemon_log": str(tmp / "daemon.log"),
        }
        reports[traced] = report = run.run_child(job, tmp, deadline)
        merge_tally(tally, report["tally"])
    traced = reports[True]
    spans.extend(traced["spans"])
    # queries per second of client latency: the out-of-band
    # query_trace fetches between queries are left out.  The two runs
    # happen seconds apart, so their latencies are compared at nominal
    # host speed.
    throughput = {
        traced: r["completed"]
        / (sum(sum(v) for v in r["latency_ms"].values()) / 1e3)
        for traced, r in reports.items()
    }
    queue, running, overhead = [], [], []
    running_by_query: dict[str, list[float]] = {key(q): [] for q in MIX}
    client_by_query: dict[str, list[float]] = {key(q): [] for q in MIX}
    for entry in traced["traces"]:
        by_name = {s["name"]: s for s in entry["trace"]["spans"]}
        admitted, run_span = by_name.get("admitted"), by_name.get("running")
        if admitted is None or run_span is None or run_span["end"] is None:
            continue
        queue.append((run_span["start"] - admitted["start"]) * 1e3)
        run_ms = (run_span["end"] - run_span["start"]) * 1e3
        running.append(run_ms)
        overhead.append(entry["client_ms"] - (run_span["end"] - admitted["start"]) * 1e3)
        running_by_query[entry["key"]].append(run_ms)
        client_by_query[entry["key"]].append(entry["client_ms"])
    stats = traced["stats"]
    fetched = sum(scan["pages_fetched"] for scan in stats["cache"]["scans"])
    useful = sum(
        math.ceil(
            max(dict(map(tuple, reference[key(q)][1][2])).get(i, 0) for q in MIX)
            / SCAN_BATCH
        )
        for i in range(len(stats["cache"]["scans"]))
    )
    return {
        "queue_ms": common.median(queue),
        "run_ms": common.median(running),
        "run_by_family": family_means(running_by_query),
        "client_by_family": family_means(client_by_query),
        "idle_calls_per_s": stats["scheduler"]["ran"].get("idle", 0)
        / traced["daemon_wall_s"],
        "pages_fetched": fetched,
        "useful_ratio": useful / fetched if fetched else 0.0,
        "rtt_ms": common.median(traced["rtt_ms"]),
        "client_overhead_ms": common.median(overhead),
        "overhead_pct": 100.0 * (throughput[False] - throughput[True])
        / throughput[False],
        "throughput": throughput,
    }


def server_writes(rows, seed, spans) -> float:
    """Median acknowledged write through an embedded ``QueryService``
    with one standing view -- the same writes as the middleware probe."""
    from repro import MutableColumnarDatabase, QueryService
    from repro.server import QuerySpec

    service = QueryService(database=MutableColumnarDatabase.from_array(rows)).start()
    try:
        service.subscribe(QuerySpec(algorithm="ta", aggregation="average", k=10))
        stream = MutationStream(rows, seed)
        writes = []
        for _ in range(MUTATIONS):
            action, obj, kwargs = stream.next()
            start = time.perf_counter()
            with spans.span("server", f"mutate-{action}"):
                service.mutate(action, obj, **kwargs)
            writes.append((time.perf_counter() - start) * 1e3)
    finally:
        service.close()
    return common.median(writes)


def print_table(core, services, server, store, n_rows) -> None:
    print(
        f"# wall ms per algorithm through each layer, x = over the bare "
        f"engine (core.run_ms) on the same {n_rows} rows"
    )
    print(
        f"# {'algo':4s} {'engine':>9s} {'services':>17s} "
        f"{'server running':>17s} {'transport client':>17s}"
    )
    for family in common.FAMILIES:
        base = core["run_ms"][family]
        cells = [
            f"{value:9.2f} ({value / base:6.1f}x)"
            for value in (
                services["session_ms"][family],
                server["run_by_family"][family],
                server["client_by_family"][family],
            )
        ]
        print(f"# {family:4s} {base:9.2f} " + " ".join(cells))
    print(
        f"# store on all {store['rows']} rows, x = over the in-RAM "
        f"engine on the same rows:"
    )
    for family in common.FAMILIES:
        base = store["ram_ms"][family]
        value = store["store_ms"][family]
        print(
            f"# {family:4s} in-RAM {base:9.2f}  store {value:9.2f} "
            f"({value / base:5.1f}x)"
        )


def sweep(workload, args, deadline: float) -> tuple[dict, dict]:
    """Run the traced layer sweep; (metrics, tally)."""
    n = run.TINY_N if args.tiny else workload.n
    matrix = common.make_inputs(args.seed, n)[0]
    rows = matrix[: min(n, SWEEP_ROWS)]
    spans = Spans()
    tally = Tally(corrupt=args.corrupt)
    reference = common.dataset_references(rows[None])
    with common.scratch_dir() as tmp:
        core = core_layer(rows, reference, spans, tally)
        middleware = middleware_layer(rows, args.seed, spans)
        # the session's loop thread and the engine thread share one CPU,
        # as the daemon's do (see common.QUERY_CPU)
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {common.QUERY_CPU})
        try:
            services = services_layer(core["database"], reference, spans, tally)
        finally:
            os.sched_setaffinity(0, affinity)
        store = store_layer(matrix, args, tmp, spans, tally, deadline)
        server = server_layer(rows, reference, args, tmp, spans, tally, deadline)
    mutate_ms = server_writes(rows, args.seed, spans)

    metrics = {}
    for family in common.FAMILIES:
        metrics[f"core.{family}_run_ms"] = (core["run_ms"][family], "ms")
    metrics["core.sorted_accesses"] = (core["sorted"], "count")
    metrics["core.random_accesses"] = (core["random"], "count")
    metrics["core.middleware_cost"] = (core["cost"], "cost")
    metrics["middleware.build_s"] = (middleware["build_s"], "s")
    metrics["middleware.mutation_ms"] = (middleware["mutation_ms"], "ms")
    metrics["store.open_s"] = (store["open_s"], "s")
    metrics["store.page_hits"] = (store["hits"], "count")
    metrics["store.page_misses"] = (store["misses"], "count")
    metrics["store.evictions"] = (store["evictions"], "count")
    metrics["store.hit_rate"] = (store["hit_rate"], "ratio")
    metrics["store.rss_anon_mib"] = (store["rss_anon_mib"], "MiB")
    metrics["store.rss_file_mib"] = (store["rss_file_mib"], "MiB")
    metrics["store.ta_overhead_x"] = (
        store["store_ms"]["ta"] / store["ram_ms"]["ta"], "x"
    )
    for family in common.FAMILIES:
        metrics[f"services.{family}_session_ms"] = (
            services["session_ms"][family], "ms"
        )
    metrics["services.calls"] = (services["calls"], "count")
    metrics["server.queue_ms"] = (server["queue_ms"], "ms")
    metrics["server.run_ms"] = (server["run_ms"], "ms")
    metrics["server.idle_calls_per_s"] = (server["idle_calls_per_s"], "1/s")
    metrics["server.scan_pages_fetched"] = (server["pages_fetched"], "count")
    metrics["server.scan_useful_ratio"] = (server["useful_ratio"], "ratio")
    metrics["server.mutate_ms"] = (mutate_ms, "ms")
    metrics["server.rebuild_ms"] = (mutate_ms - middleware["mutation_ms"], "ms")
    metrics["transport.rtt_ms"] = (server["rtt_ms"], "ms")
    metrics["transport.client_overhead_ms"] = (server["client_overhead_ms"], "ms")
    metrics["obs.overhead_pct"] = (server["overhead_pct"], "%")
    self_s = spans.self_seconds()
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_s[layer] * 1e3, "ms")

    out = args.trace_out or (
        common.ROOT / ".stackbench-out"
        / f"trace-{workload.name}-seed{args.seed}.json"
    )
    spans.write_chrome(Path(out))
    print(f"# workload {workload.name}: traced layer sweep, N={n} m={common.M}")
    print(f"# trace: {out} ({len(spans.records)} spans; open it in Perfetto)")
    print_table(core, services, server, store, len(rows))
    print(
        f"# obs overhead: {server['throughput'][False]:.3f} queries/s untraced, "
        f"{server['throughput'][True]:.3f} traced"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics, tally.as_dict()
