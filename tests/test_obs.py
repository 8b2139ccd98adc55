"""The unified observability plane: registry, tracer, probe, exports.

The two load-bearing contracts:

* **zero perturbation** -- instrumentation on or off, results, tie
  order and ``AccessStats`` are bit-identical, and the probe's totals
  equal the session's accounting exactly (the differential suite runs
  the same assertion across every backend; here we pin the mechanism);
* **determinism** -- under an injected clock, two identical runs
  produce byte-identical metric and trace exports.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.aggregation import MIN
from repro.core import (
    CombinedAlgorithm,
    StreamCombine,
    ThresholdAlgorithm,
    NoRandomAccessAlgorithm,
)
from repro.datagen import synthetic
from repro.middleware import AccessSession
from repro.middleware.cost import CostModel
from repro.obs import (
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_TRACE,
    Observability,
    QueryProbe,
    SlowQueryLog,
    Tracer,
)
from repro.server.client import QueryServiceClient
from repro.server.service import QueryService, QuerySpec
from repro.server.wire import QueryServer

from helpers import run_async


class _TickClock:
    """Deterministic clock: each call advances by a fixed step."""

    def __init__(self, step: float = 0.25):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", help="hits")
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5
        g = reg.gauge("depth")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.get() == 5
        h = reg.histogram("lat")
        for v in (0.5, 1.0, 3.0):
            h.observe(v)
        assert h.count == 3 and h.total == 4.5
        assert h.min == 0.5 and h.max == 3.0

    def test_instruments_are_memoized_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"list": "0"})
        b = reg.counter("x", {"list": "0"})
        c = reg.counter("x", {"list": "1"})
        assert a is b and a is not c

    def test_kind_conflicts_are_loud(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_disabled_registry_hands_out_the_null_instrument(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        assert c is NULL_INSTRUMENT
        assert c is reg.gauge("y") is reg.histogram("z")
        c.inc()
        c.set(5)
        c.observe(1.0)
        assert c.get() == 0.0
        assert reg.snapshot() == {"enabled": False, "metrics": []}
        assert reg.render_prometheus() == ""

    def test_histogram_buckets_power_of_two_inclusive(self):
        h = MetricsRegistry().histogram("h")
        # 2.0 is an exact power of two: it must land in the bucket whose
        # *inclusive* upper bound is 2.0, not the (2, 4] one
        h.observe(2.0)
        h.observe(3.0)
        h.observe(0.0)  # underflow bucket, bound rendered as 0.0
        bounds = h.bucket_bounds()
        assert bounds == [(0.0, 1), (2.0, 1), (4.0, 1)]

    def test_snapshot_is_json_safe_and_prometheus_is_parseable(self):
        reg = MetricsRegistry()
        reg.counter("c", {"k": "v"}).inc(2)
        reg.histogram("h").observe(1.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        text = reg.render_prometheus()
        assert 'c{k="v"} 2' in text
        assert "h_count 1" in text and "h_sum 1.5" in text
        assert 'h_bucket{le="+Inf"} 1' in text

    def test_identical_runs_render_byte_identical_exports(self):
        def one_run() -> tuple[str, str]:
            reg = MetricsRegistry(clock=_TickClock())
            reg.counter("b").inc(3)
            reg.gauge("a", {"x": "1"}).set(2)
            h = reg.histogram("c")
            for v in (0.001, 4.0, 1000.0):
                h.observe(v)
            return reg.render_prometheus(), json.dumps(
                reg.snapshot(), sort_keys=True
            )

        assert one_run() == one_run()


# ----------------------------------------------------------------------
# tracer + slow-query log
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_and_events_under_an_injected_clock(self):
        tracer = Tracer(clock=_TickClock())
        trace = tracer.trace("q1", algorithm="ta")
        trace.event("admitted")
        trace.begin("running")
        trace.end("running", outcome="ok")
        tracer.finish(trace)
        record = trace.as_dict()
        assert record["query_id"] == "q1"
        assert record["attrs"] == {"algorithm": "ta"}
        names = [s["name"] for s in record["spans"]]
        assert names == ["admitted", "running"]
        running = record["spans"][1]
        assert running["end"] - running["start"] == pytest.approx(0.25)
        assert running["attrs"] == {"outcome": "ok"}
        assert tracer.find("q1") is trace
        assert tracer.find("nope") is None

    def test_close_seals_open_spans(self):
        trace = Tracer(clock=_TickClock()).trace("q")
        trace.begin("running")
        trace.close()
        assert trace.spans[0].end is not None

    def test_completed_ring_is_bounded(self):
        tracer = Tracer(clock=_TickClock(), capacity=2)
        for i in range(4):
            tracer.finish(tracer.trace(f"q{i}"))
        assert [t.query_id for t in tracer.completed] == ["q2", "q3"]

    def test_disabled_tracer_hands_out_the_null_trace(self):
        tracer = Tracer(enabled=False)
        trace = tracer.trace("q")
        assert trace is NULL_TRACE
        trace.begin("x")
        trace.end("x")
        tracer.finish(trace)
        assert not tracer.completed

    def test_identical_runs_trace_byte_identically(self):
        def one_run() -> str:
            tracer = Tracer(clock=_TickClock())
            trace = tracer.trace("q", k=3)
            trace.begin("queued")
            trace.end("queued")
            trace.begin("running")
            trace.end("running")
            tracer.finish(trace)
            return json.dumps(trace.as_dict(), sort_keys=True)

        assert one_run() == one_run()


class TestSlowQueryLog:
    def _trace(self) -> object:
        tracer = Tracer(clock=_TickClock())
        trace = tracer.trace("q")
        trace.begin("running")
        trace.end("running")
        return trace

    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_s=1.0)
        assert not log.consider(self._trace(), duration_s=0.5)
        assert log.consider(self._trace(), duration_s=2.0, outcome="ok")
        (record,) = log.records
        assert record["duration_s"] == 2.0 and record["outcome"] == "ok"

    def test_disabled_without_threshold(self):
        log = SlowQueryLog()
        assert not log.consider(self._trace(), duration_s=100.0)
        assert not log.records

    def test_sink_receives_each_record(self):
        seen: list[dict] = []
        log = SlowQueryLog(threshold_s=0.0, sink=seen.append)
        log.consider(self._trace(), duration_s=1.0)
        assert len(seen) == 1 and seen[0]["query_id"] == "q"


# ----------------------------------------------------------------------
# the probe: exact agreement with the session's accounting
# ----------------------------------------------------------------------
ALGORITHMS = [
    ThresholdAlgorithm(),
    ThresholdAlgorithm(remember_seen=True),
    NoRandomAccessAlgorithm(),
    CombinedAlgorithm(h=2),
    StreamCombine(),
]


class TestQueryProbe:
    @pytest.mark.parametrize(
        "algorithm", ALGORITHMS, ids=lambda a: type(a).__name__
    )
    @pytest.mark.parametrize("columnar", [False, True], ids=["scalar", "col"])
    def test_probe_totals_equal_access_stats(self, algorithm, columnar):
        db = synthetic.uniform(300, 3, seed=11)
        if columnar:
            db = db.to_columnar()
        cost_model = CostModel(sorted_cost=1.0, random_cost=5.0)
        session = AccessSession(db, cost_model=cost_model)
        probe = QueryProbe(session)
        session.probe = probe
        result = algorithm.run(session, MIN, 7)
        stats = session.stats()
        assert probe.total_sorted == stats.sorted_accesses
        assert probe.total_random == stats.random_accesses
        assert probe.total_cost == stats.middleware_cost
        assert probe.halt_reason == str(result.halt_reason)
        # per-entry deltas reproduce the bill exactly (integral costs)
        assert math.fsum(e.cost_delta for e in probe.entries) == (
            stats.middleware_cost
        )
        assert probe.entries, "engines must feed the probe"
        assert probe.rounds == result.rounds

    @pytest.mark.parametrize(
        "algorithm", ALGORITHMS, ids=lambda a: type(a).__name__
    )
    def test_probe_does_not_perturb_the_run(self, algorithm):
        db = synthetic.uniform(250, 3, seed=23).to_columnar()

        def signature(with_probe: bool):
            session = AccessSession(db)
            if with_probe:
                session.probe = QueryProbe(session)
            result = algorithm.run(session, MIN, 5)
            stats = session.stats()
            return (
                [(i.obj, i.grade) for i in result.items],
                result.halt_reason,
                result.rounds,
                stats.sorted_accesses,
                stats.random_accesses,
                stats.middleware_cost,
            )

        assert signature(True) == signature(False)

    def test_threshold_trajectory_is_monotone_nonincreasing(self):
        db = synthetic.uniform(400, 3, seed=5).to_columnar()
        session = AccessSession(db)
        probe = QueryProbe(session)
        session.probe = probe
        ThresholdAlgorithm().run(session, MIN, 5)
        taus = [e.tau for e in probe.entries if e.tau is not None]
        assert taus == sorted(taus, reverse=True)
        # chunked entries expose the full inner trajectory
        flat = [
            t
            for e in probe.entries
            if e.taus is not None
            for t in e.taus
        ]
        assert flat == sorted(flat, reverse=True)

    def test_format_table_mentions_every_column(self):
        db = synthetic.uniform(100, 2, seed=1)
        session = AccessSession(db)
        probe = QueryProbe(session)
        session.probe = probe
        ThresholdAlgorithm().run(session, MIN, 3)
        table = probe.format_table(limit=4)
        assert "cost(+)" in table and "tau" in table
        assert json.dumps(probe.as_dict())  # JSON-safe

    @pytest.mark.parametrize(
        "algorithm", ALGORITHMS, ids=lambda a: type(a).__name__
    )
    @pytest.mark.parametrize("sample_every", [2, 3, 7])
    def test_sampling_keeps_totals_exact(self, algorithm, sample_every):
        """``sample_every=N`` drops entry volume but never accuracy:
        the cumulative totals equal the session's accounting exactly,
        and the recorded deltas -- which span the skipped steps --
        still sum to the full bill."""
        db = synthetic.uniform(300, 3, seed=11).to_columnar()

        def run(n):
            session = AccessSession(db)
            probe = QueryProbe(session, sample_every=n)
            session.probe = probe
            result = algorithm.run(session, MIN, 7)
            return probe, result, session.stats()

        dense, dense_result, dense_stats = run(1)
        probe, result, stats = run(sample_every)
        # sampling never perturbs the run
        assert [(i.obj, i.grade) for i in result.items] == [
            (i.obj, i.grade) for i in dense_result.items
        ]
        assert stats == dense_stats
        # totals remain exact -- cumulative counters, not sums of
        # recorded deltas
        assert probe.total_sorted == stats.sorted_accesses
        assert probe.total_random == stats.random_accesses
        assert probe.total_cost == stats.middleware_cost
        assert (probe.total_sorted, probe.total_random, probe.total_cost) \
            == (dense.total_sorted, dense.total_random, dense.total_cost)
        # ... and the deltas span the gaps, so they still sum to the
        # bill exactly (integral cost model)
        assert math.fsum(e.cost_delta for e in probe.entries) == (
            stats.middleware_cost
        )
        assert sum(e.sorted_delta for e in probe.entries) == (
            stats.sorted_accesses
        )
        # entry volume actually drops (plus at most a final residual)
        assert len(probe.entries) <= len(dense.entries) // sample_every + 1
        # sampled spans are labelled; the residual stays "final"
        assert {e.label for e in probe.entries} <= {"sample", "final"}
        assert probe.halt_reason == dense.halt_reason

    def test_sampling_final_residual_always_sealed(self):
        """Steps skipped at the tail (plus post-loop resolution
        accesses) are never lost: finish() seals them into one
        ``final`` entry whose cumulative counters are the totals."""
        db = synthetic.uniform(200, 3, seed=17).to_columnar()
        session = AccessSession(db)
        # a huge interval: *no* step is ever sampled
        probe = QueryProbe(session, sample_every=10_000)
        session.probe = probe
        ThresholdAlgorithm().run(session, MIN, 5)
        stats = session.stats()
        assert [e.label for e in probe.entries] == ["final"]
        (final,) = probe.entries
        assert final.sorted_n == stats.sorted_accesses
        assert final.random_n == stats.random_accesses
        assert final.cost == stats.middleware_cost
        assert probe.total_cost == stats.middleware_cost

    def test_sampling_validation_and_obs_passthrough(self):
        db = synthetic.uniform(30, 2, seed=3)
        session = AccessSession(db)
        with pytest.raises(ValueError, match="sample_every"):
            QueryProbe(session, sample_every=0)
        probe = Observability().probe(session, sample_every=4)
        assert probe is not None and probe.sample_every == 4
        assert Observability(enabled=False).probe(session) is None


# ----------------------------------------------------------------------
# the service plane
# ----------------------------------------------------------------------
@pytest.mark.async_services
class TestServiceObservability:
    def test_instrumented_service_is_bit_identical_and_exact(self):
        db = synthetic.uniform(200, 3, seed=7)
        obs = Observability(slow_query_threshold=0.0)
        spec = QuerySpec(algorithm="nra", aggregation="min", k=5)

        def run(service: QueryService):
            with service:
                service.start()
                handle = service.submit(spec)
                result = handle.result(timeout=30)
                bill = handle.bill()
                return result, bill

        r_obs, b_obs = run(QueryService(database=db, obs=obs))
        r_plain, b_plain = run(QueryService(database=db))
        assert [(i.obj, i.grade) for i in r_obs.items] == [
            (i.obj, i.grade) for i in r_plain.items
        ]
        assert (
            b_obs.sorted_accesses,
            b_obs.random_accesses,
            b_obs.middleware_cost,
        ) == (
            b_plain.sorted_accesses,
            b_plain.random_accesses,
            b_plain.middleware_cost,
        )
        trace = obs.tracer.find(b_obs.query_id)
        assert trace is not None
        assert [s.name for s in trace.spans] == ["admitted", "running"]
        probe = trace.probe
        assert probe is not None
        # the acceptance criterion: per-round charged cost sums exactly
        # to the QueryBill totals
        assert probe.total_cost == b_obs.middleware_cost
        assert probe.total_sorted == b_obs.sorted_accesses
        assert probe.total_random == b_obs.random_accesses
        assert math.fsum(e.cost_delta for e in probe.entries) == (
            b_obs.middleware_cost
        )
        # threshold 0.0: every query is a slow query
        (record,) = obs.slow_queries.records
        assert record["query_id"] == b_obs.query_id
        assert record["profile"]["total_cost"] == b_obs.middleware_cost

    def test_service_metrics_and_stats_surfaces(self):
        db = synthetic.uniform(150, 3, seed=9)
        obs = Observability()
        with QueryService(database=db, obs=obs) as service:
            service.start()
            spec = QuerySpec(algorithm="ta", aggregation="min", k=3)
            service.submit(spec).result(timeout=30)
            snap = service.metrics()
            assert snap["enabled"] is True
            by_name = {
                (m["name"], tuple(sorted(m["labels"].items()))): m
                for m in snap["metrics"]
            }
            assert by_name[("repro_queries_submitted_total", ())][
                "value"
            ] == 1
            assert by_name[
                ("repro_queries_finished_total", (("outcome", "ok"),))
            ]["value"] == 1
            assert by_name[("repro_query_middleware_cost", ())]["count"] == 1
            # satellite: scheduler counters + cache snapshot in stats()
            stats = service.stats()
            assert set(stats["scheduler"]) == {"ran", "pending", "failures"}
            assert set(stats["scheduler"]["ran"]) == {"urgent", "timed"}
            assert stats["scheduler"]["failures"] == 0
            assert stats["cache"] is not None and "scans" in stats["cache"]

    def test_service_without_obs_serves_the_disabled_shape(self):
        db = synthetic.uniform(50, 2, seed=2)
        with QueryService(database=db) as service:
            service.start()
            assert service.metrics() == {"enabled": False, "metrics": []}


# ----------------------------------------------------------------------
# export surfaces: wire op + HTTP endpoint
# ----------------------------------------------------------------------
@pytest.mark.async_services
class TestExportSurfaces:
    def test_metrics_wire_op(self):
        db = synthetic.uniform(120, 3, seed=13)
        obs = Observability()
        service = QueryService(database=db, obs=obs)

        async def scenario():
            server = QueryServer(service, port=0)
            await server.start()
            host, port = server.address
            client = QueryServiceClient(host, port)
            try:
                await client.run_query(
                    {"algorithm": "ta", "aggregation": "min", "k": 3}
                )
                return await client.service_metrics()
            finally:
                await client.aclose()
                await server.aclose()

        snap = run_async(scenario())
        names = {m["name"] for m in snap["metrics"]}
        assert "repro_queries_finished_total" in names
        # the transport chassis reports through the same registry
        assert "repro_server_frames_received_total" in names

    def test_trace_wire_op_round_trips(self):
        """The ``trace`` op serves QueryTrace.as_dict() verbatim: the
        client-side dict equals the server-side record byte-for-byte
        after a codec round trip, and unknown ids raise
        UnknownQueryError client-side."""
        from repro.middleware.errors import UnknownQueryError
        from repro.middleware.serialization import (
            decode_frame,
            encode_frame,
        )

        db = synthetic.uniform(120, 3, seed=29)
        obs = Observability()
        service = QueryService(database=db, obs=obs)

        async def scenario():
            server = QueryServer(service, port=0)
            await server.start()
            host, port = server.address
            client = QueryServiceClient(host, port)
            try:
                qid = await client.submit_query(
                    {"algorithm": "nra", "aggregation": "min", "k": 4}
                )
                await client.stream_result(qid)
                remote = await client.query_trace(qid)
                with pytest.raises(UnknownQueryError):
                    await client.query_trace("q99999")
                return qid, remote
            finally:
                await client.aclose()
                await server.aclose()

        qid, remote = run_async(scenario())
        local = obs.tracer.find(qid).as_dict()
        assert remote == local
        assert remote["query_id"] == qid
        assert [s["name"] for s in remote["spans"]] == [
            "admitted", "running"
        ]
        profile = remote["profile"]
        assert profile is not None and profile["entries"]
        # the record is codec-clean: encode -> decode is the identity
        assert decode_frame(encode_frame({"trace": remote})) == (
            {"trace": remote}, b""
        )

    def test_http_endpoint_serves_prometheus_and_json(self):
        obs = Observability()
        obs.counter("repro_demo_total", help="demo").inc(3)

        async def scenario():
            exporter = obs.exporter(port=0)
            await exporter.astart()
            url = f"http://{exporter.host}:{exporter.port}"

            def fetch(path: str):
                try:
                    with urllib.request.urlopen(
                        url + path, timeout=5
                    ) as response:
                        return response.status, response.read()
                except urllib.error.HTTPError as exc:
                    return exc.code, exc.read()

            import asyncio

            text = await asyncio.to_thread(fetch, "/metrics")
            blob = await asyncio.to_thread(fetch, "/metrics.json")
            missing = await asyncio.to_thread(fetch, "/nope")
            await exporter.aclose()
            return text, blob, missing

        (s1, text), (s2, blob), (s3, _) = run_async(scenario())
        assert s1 == 200 and b"repro_demo_total 3" in text
        assert s2 == 200
        snap = json.loads(blob)
        assert snap["enabled"] is True
        assert snap["metrics"][0]["name"] == "repro_demo_total"
        assert s3 == 404

    def test_endpoint_matches_registry_render(self):
        obs = Observability()
        obs.gauge("g").set(4)

        async def scenario():
            exporter = obs.exporter(port=0)
            await exporter.astart()
            import asyncio

            def fetch():
                url = (
                    f"http://{exporter.host}:{exporter.port}/metrics"
                )
                with urllib.request.urlopen(url, timeout=5) as response:
                    return response.read()

            body = await asyncio.to_thread(fetch)
            await exporter.aclose()
            return body

        assert run_async(scenario()).decode() == (
            obs.registry.render_prometheus()
        )


# ----------------------------------------------------------------------
# the bundle
# ----------------------------------------------------------------------
class TestObservabilityBundle:
    def test_disabled_plane_is_all_null_objects(self):
        obs = Observability(enabled=False)
        assert obs.counter("x") is NULL_INSTRUMENT
        assert obs.tracer.trace("q") is NULL_TRACE
        db = synthetic.uniform(20, 2, seed=1)
        assert obs.probe(AccessSession(db)) is None

    def test_shared_injected_clock(self):
        clock = _TickClock()
        obs = Observability(clock=clock)
        assert obs.registry.clock is clock
        assert obs.tracer.clock is clock
