"""Web metasearch: NRA over remote engines when random access is
impossible.

Section 2's motivating case for NRA, in the paper's actual deployment
shape: the middleware is a metasearch engine querying several *remote*
web search engines.  Each engine streams its ranked results (sorted
access) over a network link with real latency, and there is no way to
ask it for *its internal score of an arbitrary document* (no random
access).  The total relevance of a document is the sum of its
per-engine scores, and -- exactly as Section 8.1 argues -- the
metasearcher returns the top documents *without* exact total scores,
because those would require reading every list to the bottom.

Each engine here is a remote service with a per-call latency model;
the :class:`~repro.services.session.AsyncAccessSession` overlaps all
engines' result streams behind bounded prefetch buffers, and the
example measures what that overlap is worth against the sequential
fetch-on-demand client -- same accesses charged, same answers, less
wall-clock.

By default the engines are in-process simulated services; with
``--subprocess`` they are served by a *spawned daemon* (``python -m
repro.server --store``, the same process that serves whole queries)
over the real wire protocol (every page crosses a TCP socket; the
latency model runs server-side), and the queries run unchanged.

With ``--server`` the engines sit behind an embedded
:class:`~repro.server.service.QueryService`: a batch of concurrent
metasearch queries (mixed ``k`` and aggregation) runs through one
shared scan per engine, every result stays bit-identical to a solo
run, and each query's bill charges exactly its own consumed prefix --
the example prints the per-query invoices and what scan sharing saved.

With ``--live`` the index is *mutable*
(:class:`~repro.middleware.mutable.MutableColumnarDatabase` behind the
same service): a standing top-k query subscribes once, the crawler
streams inserts/rescores/delistings through the service's mutation
plane, and the subscriber mirrors its window purely from the typed
``add``/``change``/``remove`` deltas -- long-tail rescores are screened
out by the view's bound certificate (no engine run, no delta), and the
mirrored window is verified equal to a from-scratch top-k of the
mutated index.

With ``--chaos`` the engines are served by a two-replica
:class:`~repro.resilience.chaos.ReplicaFleet` of server processes and
the example turns referee: it SIGKILLs one replica of *every* engine
mid-query and shows the answer is bit-identical to the failure-free
run (transparent failover), then kills an engine served by a single
sacrificial process mid-query and shows the resulting
:class:`~repro.resilience.degraded.DegradedResult` -- the lost list,
the guarantee, and its certificate checked against full ground truth.

With ``--metrics`` the same metasearch query runs through a service
with the :mod:`repro.obs` observability plane attached: the example
prints the query's lifecycle spans, its round-by-round bound
trajectory (sorted/random depth, charged cost, τ/W/B per engine
round -- the profile sums *exactly* to the invoice), and the
Prometheus rendering of the service's metrics registry -- all
without perturbing the answer or the accounting.

With ``--ondisk`` the merged engine index is persisted to the v3
memory-mapped store (:mod:`repro.store`) and the same query runs
*out-of-core*: reads page in through an LRU cache, only the consumed
prefix ever becomes resident, and the answer -- bounds, tie order,
and the full access accounting -- is bit-identical to the in-RAM run.

Run:  python examples/web_metasearch.py
          [--subprocess] [--server] [--live] [--chaos] [--metrics]
          [--ondisk]
"""

import random
import sys
import time

from repro import SUM, GradedSource, NoRandomAccessAlgorithm
from repro.analysis import format_table
from repro.middleware import assemble_database
from repro.resilience import (
    DegradedResult,
    ReplicaFleet,
    ReplicatedGradedSource,
    verify_against_oracle,
)
from repro.services import (
    AsyncAccessSession,
    LatencyModel,
    network_services,
    services_for_sources,
)
from repro.transport import ServerProcess


def engine_scores(rng: random.Random, docs, bias: float):
    """Scores from one engine: a mixture of shared relevance and
    engine-specific opinion."""
    return [
        (doc, max(0.0, min(1.0, shared * bias + rng.gauss(0, 0.08))))
        for doc, shared in docs
    ]


def build_engines(rng: random.Random, docs):
    """Three search engines as graded sources; none allows random
    access (search engines hide their scores)."""
    return [
        GradedSource(
            name,
            engine_scores(rng, docs, bias),
            supports_random=False,
        )
        for name, bias in [
            ("engine-alpha", 0.95),
            ("engine-beta", 0.85),
            ("engine-gamma", 0.90),
        ]
    ]


def query(engines, k: int, *, overlapped: bool, server=None):
    """One metasearch query over remote engines; returns the NRA
    result and the wall-clock spent.  ``overlapped`` pipelines all
    engines' streams concurrently; off, pages are fetched one at a
    time on demand (the sequential client).  With ``server`` the
    engines live in that spawned process and every page crosses a
    real socket; otherwise they are in-process simulations."""
    if server is not None:
        # real transport: the latency model runs inside the server
        services = network_services(server.address)
        capabilities = [src.capabilities() for src in engines]
    else:
        services = services_for_sources(
            engines,
            # ~2 ms per page round trip, +-1 ms jitter, per engine
            latency=LatencyModel(base=0.002, jitter=0.001, seed=7),
        )
        capabilities = None
    session = AsyncAccessSession(
        services,
        capabilities=capabilities,
        batch_size=64,
        prefetch_pages=4 if overlapped else 0,
        eager=overlapped,
    )
    with session:
        start = time.perf_counter()
        result = NoRandomAccessAlgorithm().run(session, SUM, k)
        elapsed = time.perf_counter() - start
    return result, elapsed


def server_demo(engines) -> None:
    """A burst of concurrent metasearch queries through the query
    service: shared engine scans, per-query invoices."""
    from repro.middleware.cost import AdmissionPolicy
    from repro.server import QueryService, QuerySpec

    engine_db, _ = assemble_database(engines)
    # eight tenants hit the metasearcher at once, wanting different
    # slices of the same engines (all NRA: no random access)
    specs = [
        QuerySpec(algorithm="nra", aggregation=agg, k=k)
        for agg, k in [
            ("sum", 8), ("sum", 3), ("average", 5), ("sum", 12),
            ("average", 8), ("sum", 5), ("min", 8), ("sum", 10),
        ]
    ]
    service = QueryService(
        database=engine_db,
        latency=LatencyModel(base=0.002, jitter=0.001, seed=7),
        admission=AdmissionPolicy(max_active=4),
        batch_size=64,
    )
    print(
        f"\n--- query service: {len(specs)} concurrent metasearch "
        "queries, shared engine scans ---"
    )
    with service.start():
        start = time.perf_counter()
        handles = [service.submit(spec) for spec in specs]
        results = [h.result(timeout=60.0) for h in handles]
        elapsed = time.perf_counter() - start
        bills = [h.bill() for h in handles]
        cache = service.stats()["cache"]

    # every concurrent answer is the solo answer, and every bill is
    # that query's own consumption -- shared pages were free speculation
    for spec, result, bill in zip(specs, results, bills):
        solo = spec.make_algorithm().run_on(
            engine_db, spec.make_aggregation(), spec.k,
            cost_model=spec.cost_model(),
        )
        assert [i.obj for i in result.items] == [i.obj for i in solo.items]
        assert result.stats == solo.stats
        assert bill.middleware_cost == result.stats.middleware_cost

    rows = [
        [
            bill.query_id,
            f"{bill.aggregation}(k={bill.k})",
            bill.sorted_accesses,
            bill.random_accesses,
            f"{bill.middleware_cost:g}",
            f"{bill.wall_seconds * 1e3:.0f} ms",
            bill.outcome,
        ]
        for bill in bills
    ]
    print(
        format_table(
            ["query", "asks for", "sorted", "random", "cost", "wall",
             "outcome"],
            rows,
        )
    )
    billed = sum(b.sorted_accesses for b in bills)
    fetched = sum(s["materialized"] for s in cache["scans"])
    print(
        f"\n{len(specs)} queries done in {elapsed * 1e3:.0f} ms; engines "
        f"served {fetched} sorted entries once where solo sessions would "
        f"have pulled {billed} -- each bill still charges that query's "
        "own consumed prefix (verified bit-identical to solo runs)."
    )


def live_demo(engines) -> None:
    """A standing metasearch query over a *mutable* index: the crawler
    keeps writing, the subscriber receives canonical deltas, and the
    view's bound certificate screens out the long-tail churn."""
    from repro.middleware import Database, MutableColumnarDatabase
    from repro.server import QueryService, QuerySpec

    engine_db, _ = assemble_database(engines)
    index = MutableColumnarDatabase.from_database(engine_db)
    k = 8
    print(
        f"\n--- live index: standing top-{k} over a mutable metasearch "
        "index (protocol-v2 subscribe/mutate) ---"
    )
    with QueryService(database=index).start() as service:
        sub = service.subscribe(
            QuerySpec(algorithm="nra", aggregation="sum", k=k, mode="view")
        )
        view_id, seq = sub["view"], sub["seq"]
        # a subscriber needs no further snapshots: it mirrors the
        # window by applying the typed deltas to the initial one
        window = {
            item.obj: (rank, item.grade)
            for rank, item in enumerate(sub["result"].items)
        }
        members = [item.obj for item in sub["result"].items]
        print(
            f"subscribed {view_id} at index version {sub['version']}; "
            f"initial window: {', '.join(str(m) for m in members)}"
        )

        def drain(label: str, timeout: float) -> list:
            nonlocal seq
            feed = service.view_events(view_id, after=seq, timeout=timeout)
            seq = feed["seq"]
            for e in feed["events"]:
                if e["kind"] == "remove":
                    window.pop(e["obj"])
                else:
                    window[e["obj"]] = (e["rank"], e["grade"])
            deltas = ", ".join(
                f"{e['kind']} {e['obj']}"
                + (f" -> rank {e['rank']}" if e["rank"] is not None else "")
                for e in feed["events"]
            ) or "(no deltas)"
            print(f"  {label:42s} {deltas}")
            return feed["events"]

        # a freshly-crawled page goes viral: every engine scores it high
        service.mutate("insert", "doc-viral", grades=[0.97, 0.96, 0.98])
        events = drain("crawl finds doc-viral (hot):", 5.0)
        assert any(e["kind"] == "add" and e["obj"] == "doc-viral"
                   for e in events)

        # a window member is delisted by the moderators
        service.mutate("delete", members[0])
        events = drain(f"moderators delist {members[0]}:", 5.0)
        assert any(e["kind"] == "remove" for e in events)

        # routine recrawl: tail documents get rescored -- every one is
        # certifiably below the window floor, so the standing view
        # skips the engine entirely and streams nothing
        tail = [obj for obj in engine_db.objects
                if obj not in members][:60]
        for i, obj in enumerate(tail):
            service.mutate(
                "update", obj, list_index=i % 3, grade=0.3 + (i % 10) / 50
            )
        events = drain(f"recrawl rescores {len(tail)} tail docs:", 0.2)
        assert events == []

        # the delta-mirrored window still equals a from-scratch top-k
        # of the mutated index -- grades exact, canonical tie order
        ids, matrix = index.to_array()
        scratch_top = Database.from_array(
            matrix, object_ids=ids
        ).top_k(SUM, k)
        mirrored = [
            (obj, grade)
            for obj, (rank, grade) in sorted(
                window.items(), key=lambda kv: kv[1][0]
            )
        ]
        assert mirrored == [(obj, g) for obj, g in scratch_top]
        print(
            f"{2 + len(tail)} mutations, {seq} deltas streamed; the "
            f"{len(tail)} tail rescores were screened by the bound "
            "certificate (no engine run), and the delta-mirrored "
            "window is verified equal to a from-scratch top-k of the "
            f"mutated index (version {service.stats()['version']})."
        )
        service.unsubscribe(view_id)


def metrics_demo(engines, k: int) -> None:
    """The same metasearch query, observed: lifecycle spans, the
    per-round bound trajectory, and the Prometheus export -- with the
    answer and the invoice untouched by the instrumentation."""
    from repro.obs import Observability
    from repro.server import QueryService, QuerySpec

    engine_db, _ = assemble_database(engines)
    obs = Observability()
    spec = QuerySpec(algorithm="nra", aggregation="sum", k=k)
    print(
        f"\n--- observability: the top-{k} metasearch query through an "
        "instrumented query service ---"
    )
    with QueryService(database=engine_db, obs=obs).start() as service:
        plain = QueryService(database=engine_db)
        with plain.start():
            baseline = plain.submit(spec).result(timeout=60.0)
        handle = service.submit(spec)
        result = handle.result(timeout=60.0)
        bill = handle.bill()

    # zero perturbation: instrumented and plain answers bit-identical
    assert [i.obj for i in result.items] == [i.obj for i in baseline.items]
    assert result.stats == baseline.stats

    trace = obs.tracer.find(bill.query_id)
    print(
        "lifecycle: "
        + " -> ".join(span.name for span in trace.spans)
        + f" (outcome {bill.outcome}, {bill.wall_seconds * 1e3:.0f} ms)"
    )
    probe = trace.probe
    print("\nround-by-round bound trajectory (NRA, no random access):")
    print(probe.format_table(limit=12))
    assert probe.total_sorted == bill.sorted_accesses
    assert probe.total_random == bill.random_accesses
    assert probe.total_cost == bill.middleware_cost
    print(
        f"\nthe {len(probe.entries)} per-round cost deltas sum exactly "
        f"to the invoice: {probe.total_cost:g} == "
        f"{bill.middleware_cost:g} (sorted {probe.total_sorted}, "
        f"random {probe.total_random})."
    )

    lines = [
        line
        for line in obs.registry.render_prometheus().splitlines()
        if line.startswith("repro_quer") and "_bucket" not in line
    ]
    print("\nPrometheus rendering (query families, buckets elided):")
    for line in lines:
        print(f"  {line}")
    print(
        "the same registry serves the 'metrics' wire op and "
        "`python -m repro.server --metrics-port N`."
    )


def ondisk_demo(engines, k: int) -> None:
    """The same metasearch index persisted to the v3 store and queried
    out-of-core: the engines' merged lists live in one memory-mapped
    file, reads go through an LRU page cache, and the answer -- items,
    bounds, and the full access accounting -- is bit-identical to the
    in-RAM run."""
    import tempfile
    from pathlib import Path

    from repro.middleware import AccessSession
    from repro.store import open_store, save_store

    engine_db, _ = assemble_database(engines)
    algorithm = NoRandomAccessAlgorithm()
    baseline = algorithm.run_on(engine_db, SUM, k)

    print(
        f"\n--- out-of-core: the top-{k} metasearch query over the "
        "memory-mapped store ---"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "engines.store"
        save_store(engine_db, path)
        ondisk = open_store(path, cache_bytes=1 << 20, page_rows=256)
        result = algorithm.run(AccessSession(ondisk), SUM, k)
        assert [i.obj for i in result.items] == [
            i.obj for i in baseline.items
        ]
        assert result.stats == baseline.stats
        cache = ondisk.page_cache.snapshot()
        print(
            f"store: {path.stat().st_size / 1024:.0f} KiB on disk, "
            f"{cache['mapped_bytes'] / 1024:.0f} KiB ever mapped, "
            f"{cache['cached_bytes'] / 1024:.0f} KiB resident in "
            f"{cache['pages']} cache pages "
            f"(hits {cache['hits']}, misses {cache['misses']})."
        )
        print(
            "answer and access accounting bit-identical to the in-RAM "
            "run; only the consumed prefix was ever paged in."
        )


def chaos_demo(engines, k: int) -> None:
    """Kill real server processes mid-query and show what survives:
    failover keeps the answer bit-identical; whole-engine loss yields
    a certified degraded answer."""
    engine_db, _ = assemble_database(engines)
    capabilities = [src.capabilities() for src in engines]
    truth = {obj: engine_db.grade_vector(obj) for obj in engine_db.objects}

    with ReplicaFleet(engine_db, replicas=2) as fleet:
        print(
            "\n--- chaos: every engine served by 2 replica server "
            f"processes (pids {[s.pid for s in fleet.servers]}) ---"
        )

        # failure-free reference over the fleet; one sorted access per
        # engine primes every group's stream on replica 0 (the chaos
        # run primes identically, so the accounting stays comparable)
        groups = fleet.services()
        with AsyncAccessSession(
            groups, capabilities=capabilities, batch_size=64, prefetch_pages=0
        ) as session:
            for i in range(len(engines)):
                session.sorted_access(i)
            reference = NoRandomAccessAlgorithm().run(session, SUM, k)

        # chaos run: prime the same way, then SIGKILL replica 0 of
        # every engine mid-query -- its connections die between frames
        groups = fleet.services()
        with AsyncAccessSession(
            groups, capabilities=capabilities, batch_size=64, prefetch_pages=0
        ) as session:
            for i in range(len(engines)):
                session.sorted_access(i)
            fleet.kill(0)
            survived = NoRandomAccessAlgorithm().run(session, SUM, k)
        failovers = sum(g.failovers for g in groups)
        assert [i.obj for i in survived.items] == [
            i.obj for i in reference.items
        ]
        assert survived.stats == reference.stats
        print(
            f"SIGKILLed replica 0 of all {len(engines)} engines "
            f"mid-query: {failovers} stream(s) failed over and the "
            f"top-{k} answer and access accounting are bit-identical "
            "to the failure-free run."
        )

        # whole-engine loss: the third engine is served by a single
        # sacrificial process; killing it loses the list for good
        fleet.restart(0)
        with ServerProcess(engine_db) as sacrificial:
            groups = fleet.services()
            solo = ReplicatedGradedSource(
                engines[2].name,
                [network_services(sacrificial.address)[2]],
            )
            with AsyncAccessSession(
                [groups[0], groups[1], solo],
                capabilities=capabilities,
                batch_size=64,
                prefetch_pages=0,
                survive_list_loss=True,
            ) as session:
                for i in range(len(engines)):
                    session.sorted_access(i)
                sacrificial.kill()
                degraded = NoRandomAccessAlgorithm().run(session, SUM, k)
        assert isinstance(degraded, DegradedResult)
        verify_against_oracle(degraded, truth, SUM)
        lost = ", ".join(engines[i].name for i in sorted(degraded.lost_lists))
        print(
            f"SIGKILLed the only server for {lost}: NRA finished over "
            f"the surviving engines at depth {degraded.depth} and "
            f"returned a degraded answer -- guarantee "
            f"'{degraded.guarantee}', certified theta "
            f"{degraded.certified_theta:.3f}, verified against full "
            "ground truth."
        )


def main(
    subprocess_server: bool = False,
    query_service: bool = False,
    live: bool = False,
    chaos: bool = False,
    metrics: bool = False,
    ondisk: bool = False,
) -> None:
    rng = random.Random(11)
    docs = [(f"doc-{i:04d}", rng.random()) for i in range(3000)]
    k = 8

    # the engines are immutable graded sets; per-query mutable state
    # lives in the service wrappers query() creates, so one build
    # serves both the overlapped and the sequential run
    engines = build_engines(rng, docs)
    server = None
    if subprocess_server:
        # serve the engines' exact lists from a spawned process; the
        # no-random-access capability travels session-side
        engine_db, _ = assemble_database(engines)
        server = ServerProcess(
            engine_db, latency=0.002, jitter=0.001, latency_seed=7
        )
        print(
            f"engines served by the repro.server daemon pid={server.pid} at "
            f"{server.address[0]}:{server.address[1]} "
            "(every page crosses a real socket)"
        )
    try:
        result, overlapped_s = query(
            engines, k, overlapped=True, server=server
        )

        print(
            f"metasearch top-{k} over 3 remote engines "
            "(t = sum of engine scores, no random access):"
        )
        rows = []
        for item in result.items:
            score = (
                f"{item.grade:.4f}"
                if item.grade is not None
                else f"[{item.lower_bound:.3f}, {item.upper_bound:.3f}]"
            )
            rows.append([item.obj, score])
        print(format_table(["document", "total score (or bound)"], rows))
        print(
            f"\nNRA: {result.sorted_accesses} sorted accesses "
            f"(depth {result.depth} of {len(docs)} per engine), "
            "0 random accesses."
        )
        exact = sum(1 for item in result.items if item.grade is not None)
        print(
            f"{exact}/{k} of the answers happen to have exact scores; the "
            "rest are returned with bound intervals -- the paper's "
            "'top k objects without grades' contract."
        )

        # the same query through a sequential fetch-on-demand client:
        # the accesses charged are identical, only the waiting adds up
        sequential_result, sequential_s = query(
            engines, k, overlapped=False, server=server
        )
        assert sequential_result.stats == result.stats
        print(
            f"\nOverlapped engine streams: {overlapped_s * 1e3:.0f} ms; "
            f"sequential round-robin: {sequential_s * 1e3:.0f} ms "
            f"({sequential_s / overlapped_s:.1f}x) -- identical access "
            "accounting, the speedup is pure communication overlap."
        )
    finally:
        if server is not None:
            server.terminate()

    if query_service:
        server_demo(engines)

    if live:
        live_demo(engines)

    if chaos:
        chaos_demo(engines, k)

    if metrics:
        metrics_demo(engines, k)

    if ondisk:
        ondisk_demo(engines, k)


if __name__ == "__main__":
    main(
        subprocess_server="--subprocess" in sys.argv[1:],
        query_service="--server" in sys.argv[1:],
        live="--live" in sys.argv[1:],
        chaos="--chaos" in sys.argv[1:],
        metrics="--metrics" in sys.argv[1:],
        ondisk="--ondisk" in sys.argv[1:],
    )
