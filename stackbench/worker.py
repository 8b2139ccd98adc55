"""The query process of one benchmark run.

``run.py`` starts this file as a fresh interpreter, so its ``VmHWM``
measures the query path alone (the scalar reference, built by the
parent, never touches it).  It reads one JSON job from the path in
``argv[1]``, runs it, and prints one JSON report as its last stdout
line.

Roles:

``engine``
    the mix through bare ``run_on`` over in-RAM ``ColumnarDatabase``s;
``store``
    the same loop over ``open_store(path)``, working set 2x the cache;
``socket``
    one connection from an asyncio client to a spawned
    ``python -m repro.server --store`` daemon;
``rw``
    one client thread driving an embedded ``QueryService`` over a
    ``MutableColumnarDatabase``: query, seeded mutation, repeat, with a
    standing view subscribed and drained.

A job either runs for ``seconds`` (a closed loop: the next operation
starts when the previous one finished) or, for the traced layer sweep,
for a fixed number of mix ``passes``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import common  # noqa: E402
from common import MIX, Tally  # noqa: E402
from prober import HostSpeed  # noqa: E402
from spans import Spans  # noqa: E402

common.import_repro()

from repro.server import QuerySpec  # noqa: E402


def spec_of(query: common.Query, dataset: int) -> QuerySpec:
    """The service spelling of one mix query, over the list set of
    ``dataset`` (several datasets share one wide database)."""
    return QuerySpec(
        algorithm=query.algorithm,
        aggregation=query.aggregation,
        k=query.k,
        random_cost=query.random_cost,
        lists=tuple(range(dataset * common.M, (dataset + 1) * common.M)),
    )


def hwm_kib() -> int:
    return common.proc_status_kib()["VmHWM"]


def own_speed() -> HostSpeed:
    """Host speed on this process's CPU, probed with it stopped."""
    return HostSpeed(common.QUERY_CPU, [os.getpid()])


#: throughput and CPU per query are read over this many slices of the
#: operations, so a stall moves only the slice it falls in
SLICES = 10

#: operations per host-speed probe.  The host holds a speed for
#: seconds, far longer than a pass of the mix; each probe evicts the
#: program's caches and stops it for a few milliseconds.
PROBE_EVERY = len(MIX)


class Loop:
    """Closed-loop bookkeeping shared by every role: which operation
    comes next, when to stop, per-operation times and CPU, the tally.

    Every operation is timed between :meth:`begin` and :meth:`end`;
    ``begin`` first probes the host's speed with the program stopped
    (every ``PROBE_EVERY`` operations, outside the timed span, see
    ``prober.py``), and ``end`` quotes the operation's wall time at the
    nominal host speed.  The measured latencies are reported beside the
    scaled ones.  CPU seconds are not scaled: a spinning thread burns a
    CPU-second per second at any host speed.
    """

    def __init__(
        self, job: dict, speed: HostSpeed, cpu=common.self_cpu_s, hwm=hwm_kib
    ):
        self.seconds = job.get("seconds")
        self.passes = job.get("passes")
        self.datasets = job.get("datasets", 1)
        self.op_bound = job["op_bound"]
        self.tally = Tally(corrupt=job.get("corrupt", False))
        self.speed = speed
        #: per (dataset, query): latencies of the verified answers at
        #: nominal host speed, and as measured
        self.latency_ms: dict[str, list[float]] = {}
        self.raw_latency_ms: dict[str, list[float]] = {}
        #: per operation: (a verified query?, scaled ms, measured CPU s)
        self.ops: list[tuple[bool, float, float]] = []
        self.completed = 0
        self.started_at = 0.0
        self.elapsed = 0.0
        self._cpu = cpu
        self._begun = 0
        #: ``VmHWM`` (KiB) of the process that serves the queries, read
        #: once every query of the mix has run on every dataset (or at
        #: the end of a shorter run).  Service state grows with the
        #: queries served, so a reading at the end of the run would
        #: track how many the host's speed let through.
        self._hwm = hwm
        self.hwm_kib: int | None = None

    def op(self, issued: int) -> tuple[int, common.Query]:
        """The ``issued``-th operation: the mix in order, dataset by
        dataset."""
        if issued == len(MIX) * self.datasets:
            self.hwm_kib = self._hwm()
        return (issued // len(MIX)) % self.datasets, MIX[issued % len(MIX)]

    def start(self) -> None:
        self.started_at = time.monotonic()

    def more(self, issued: int) -> bool:
        if self.passes is not None:
            return issued < self.passes * len(MIX) * self.datasets
        return time.monotonic() - self.started_at < self.seconds

    def begin(self) -> tuple[float, float]:
        if self._begun % PROBE_EVERY == 0:
            self.speed.sample()
        self._begun += 1
        return time.perf_counter(), self._cpu()

    def end(self, mark: tuple[float, float], key: str | None, ok: bool) -> float:
        """Close the operation ``begin`` opened: a query named ``key``
        (``None`` for a write) that ``ok`` says verified.  Returns the
        measured milliseconds."""
        start, cpu = mark
        raw_ms = (time.perf_counter() - start) * 1e3
        ms = raw_ms * self.speed.factor()
        query_ok = key is not None and ok
        self.ops.append((query_ok, ms, self._cpu() - cpu))
        if query_ok:
            self.completed += 1
            self.latency_ms.setdefault(key, []).append(ms)
            self.raw_latency_ms.setdefault(key, []).append(raw_ms)
        return raw_ms

    def finish(self) -> None:
        self.elapsed = time.monotonic() - self.started_at
        if self.hwm_kib is None:
            self.hwm_kib = self._hwm()

    def slices(self) -> tuple[list[float], list[float]]:
        """(verified queries per second of operation time, CPU seconds
        per verified query) over ``SLICES`` consecutive runs of
        operations."""
        rates, cpus = [], []
        count = len(self.ops)
        for j in range(SLICES):
            chunk = self.ops[j * count // SLICES:(j + 1) * count // SLICES]
            queries = sum(1 for ok, _, _ in chunk if ok)
            if not queries:
                continue
            rates.append(queries / (sum(ms for _, ms, _ in chunk) / 1e3))
            cpus.append(sum(cpu for _, _, cpu in chunk) / queries)
        return rates, cpus

    def report(self) -> dict:
        rates, cpus = self.slices()
        return {
            "latency_ms": self.latency_ms,
            "raw_latency_ms": self.raw_latency_ms,
            "completed": self.completed,
            "elapsed_s": self.elapsed,
            "slice_rates": rates,
            "slice_cpu_s": cpus,
            "host_factor": common.median(self.speed.factors),
            "tally": self.tally.as_dict(),
        }


def run_sync_mix(loop: Loop, databases, reference: dict, spans: Spans, layer: str):
    """One client, the mix in order over each database in turn, bare
    engine calls."""
    loop.start()
    issued = 0
    while loop.more(issued):
        dataset, query = loop.op(issued)
        key = common.key(dataset, query)
        qid = f"q{issued:05d}"
        issued += 1
        mark = loop.begin()
        with spans.span(layer, query.name, query=qid):
            result = common.run_engine(query, databases[dataset])
            ok = loop.tally.check(common.signature(result), reference[key])
        if ok and time.perf_counter() - mark[0] > loop.op_bound:
            # an engine call cannot be interrupted in-process; one that
            # overran its bound still counts as a failed operation
            loop.tally.failed += 1
            ok = False
        loop.end(mark, key, ok)
    loop.finish()


def timed_setups(
    job: dict, speed: HostSpeed, setup, close=None
) -> tuple[list[float], object]:
    """Run ``setup`` ``setup_repeats`` times; (seconds each at nominal
    host speed, last result).  ``close``, when given, releases each
    earlier result."""
    times, result = [], None
    for attempt in range(job["setup_repeats"]):
        speed.sample()
        start = time.perf_counter()
        result = setup()
        times.append((time.perf_counter() - start) * speed.factor())
        if close is not None and attempt < job["setup_repeats"] - 1:
            close(result)
    return times, result


# ----------------------------------------------------------------------
# roles
# ----------------------------------------------------------------------
def role_engine(job: dict) -> dict:
    from repro import ColumnarDatabase

    baseline = hwm_kib()
    inputs = np.load(job["inputs"])
    with own_speed() as speed:
        setups, databases = timed_setups(
            job, speed,
            lambda: [ColumnarDatabase.from_array(rows) for rows in inputs],
        )
        spans = Spans(job.get("trace", False))
        loop = Loop(job, speed)
        run_sync_mix(loop, databases, job["reference"], spans, "core")
    return {
        **loop.report(),
        "setup_s": setups,
        "rss_peak_kib": loop.hwm_kib - baseline,
        "spans": spans.records,
    }


def role_store(job: dict) -> dict:
    from repro.store import open_store

    baseline_status = common.proc_status_kib()
    spans = Spans(job.get("trace", False))

    def setup():
        # the page cache is half the grade matrix, so the working set
        # is twice the cache at any N; a store without this knob or
        # these counters fails the run, and the workload is redefined
        with spans.span("store", "open_store"):
            return [
                open_store(path, cache_bytes=job["cache_bytes"])
                for path in job["stores"]
            ]

    with own_speed() as speed:
        opens, databases = timed_setups(job, speed, setup)
        loop = Loop(job, speed)
        run_sync_mix(loop, databases, job["reference"], spans, "store")
    status = common.proc_status_kib()
    cache = {"hits": 0, "misses": 0, "evictions": 0}
    for database in databases:
        snapshot = database.page_cache.snapshot()
        for name in cache:
            cache[name] += snapshot[name]
    return {
        **loop.report(),
        "open_s": opens,
        "rss_peak_kib": loop.hwm_kib - baseline_status["VmHWM"],
        "rss_anon_kib": status["RssAnon"] - baseline_status["RssAnon"],
        "rss_file_kib": status["RssFile"] - baseline_status["RssFile"],
        "cache": cache,
        "spans": spans.records,
    }


# ----------------------------------------------------------------------
# socket: the daemon and one connection
# ----------------------------------------------------------------------
def start_daemon(job: dict):
    argv = [
        sys.executable, "-m", "repro.server",
        "--store", job["store"],
        "--port", "0",
        "--max-active", "2",
    ]
    if not job.get("daemon_obs", False):
        argv.append("--no-obs")
    with open(job["daemon_log"], "ab") as log:
        proc = common.spawn(
            argv,
            cpu=common.QUERY_CPU,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    try:
        banner = common.wait_for_line(proc, "LISTENING", job["op_bound"])
    except BaseException:
        common.stop(proc)
        raise
    _, host, port = banner.split()
    return proc, host, int(port)


async def socket_client(job, loop: Loop, host, port, spans: Spans, traces: list):
    from repro.server import QueryServiceClient

    reference = job["reference"]
    client = QueryServiceClient(host, port, request_timeout=loop.op_bound + 10.0)
    try:
        loop.start()
        issued = 0
        while loop.more(issued):
            dataset, query = loop.op(issued)
            key = common.key(dataset, query)
            issued += 1
            mark = loop.begin()
            t0 = time.monotonic()
            qid = None
            try:
                qid = await client.submit_query(spec_of(query, dataset))
                # one long-poll spans the whole bound: a server-side
                # poll that times out cancels the query's future, and
                # its result is then never delivered
                outcome = await asyncio.wait_for(
                    client.stream_result(qid, poll_timeout=loop.op_bound),
                    loop.op_bound,
                )
            except Exception:
                loop.end(mark, key, False)
                loop.tally.fail()
                if qid is not None:
                    with contextlib.suppress(Exception):
                        await client.cancel_query(qid)
                continue
            want = reference[key]
            ok = loop.tally.check(common.signature(outcome.result), want)
            if ok and (
                outcome.bill is None
                or common.bill_signature(outcome.bill) != common.expected_bill(want)
            ):
                loop.tally.failed += 1
                loop.tally.mismatched += 1
                ok = False
            t1 = time.monotonic()
            raw_ms = loop.end(mark, key, ok)
            if spans.enabled:
                parent = spans.add("transport", query.name, t0, t1, query=qid)
                f0 = time.monotonic()
                trace = await client.query_trace(qid)
                spans.add("obs", "query_trace", f0, time.monotonic(), query=qid)
                if trace:
                    traces.append(
                        {"query": qid, "key": key, "client_ms": raw_ms,
                         "parent": parent, "trace": trace}
                    )
        loop.finish()
        extras = {}
        if spans.enabled:
            rtts = []
            for _ in range(job.get("rtt_probes", 0)):
                r0 = time.monotonic()
                await client.service_meta()
                r1 = time.monotonic()
                spans.add("transport", "service_meta", r0, r1)
                rtts.append((r1 - r0) * 1e3)
            extras["rtt_ms"] = rtts
        extras["stats"] = await client.service_stats()
        return extras
    finally:
        with contextlib.suppress(Exception):
            await client.aclose()


def role_socket(job: dict) -> dict:
    # the client keeps off the daemon's CPU; the daemon does most of
    # the work, so the probe reads the daemon's CPU
    os.sched_setaffinity(0, {common.CLIENT_CPU})
    spans = Spans(job.get("trace", False))
    proc = None
    try:
        with HostSpeed(common.QUERY_CPU, [os.getpid()]) as speed:
            setups, (proc, host, port) = timed_setups(
                job, speed, lambda: start_daemon(job),
                close=lambda d: common.stop(d[0]),
            )
        daemon = proc.pid
        ready = time.monotonic()
        baseline = common.proc_status_kib(daemon)["VmHWM"]
        with HostSpeed(common.QUERY_CPU, [os.getpid(), daemon]) as speed:
            loop = Loop(
                job, speed,
                cpu=lambda: common.self_cpu_s() + common.proc_cpu_s(daemon),
                hwm=lambda: common.proc_status_kib(daemon)["VmHWM"],
            )
            traces: list = []
            extras = asyncio.run(
                socket_client(job, loop, host, port, spans, traces)
            )
        extras["daemon_wall_s"] = time.monotonic() - ready
        rss_peak = loop.hwm_kib - baseline
    finally:
        if proc is not None:
            common.stop(proc)
    for entry in traces:
        for span in entry["trace"].get("spans", []):
            if span.get("end") is None:
                continue
            spans.add(
                "server", span["name"], span["start"], span["end"],
                query=entry["query"], parent=entry["parent"], pid=daemon,
            )
    return {
        **loop.report(),
        "setup_s": setups,
        "rss_peak_kib": rss_peak,
        "spans": spans.records,
        "traces": traces,
        **extras,
    }


# ----------------------------------------------------------------------
# rw: the write plane through an embedded service
# ----------------------------------------------------------------------
class MutationStream:
    """The seeded mutation sequence, cycling update -> insert -> delete,
    over an independent model of the live rows (the oracle's input)."""

    ACTIONS = ("update", "insert", "delete")

    def __init__(self, matrix: np.ndarray, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.width = matrix.shape[1]
        self.rows = {obj: matrix[obj] for obj in range(len(matrix))}
        self.live = list(range(len(matrix)))
        self.slot = {obj: i for i, obj in enumerate(self.live)}
        self.next_id = len(matrix)
        self.count = 0

    def next(self) -> tuple:
        action = self.ACTIONS[self.count % 3]
        self.count += 1
        if action == "insert":
            obj = self.next_id
            self.next_id += 1
            grades = self.rng.random(self.width)
            self.rows[obj] = grades
            self.slot[obj] = len(self.live)
            self.live.append(obj)
            return action, obj, {"grades": [float(g) for g in grades]}
        obj = self.live[int(self.rng.integers(len(self.live)))]
        if action == "update":
            list_index = int(self.rng.integers(self.width))
            grade = float(self.rng.random())
            self.rows[obj] = self.rows[obj].copy()
            self.rows[obj][list_index] = grade
            return action, obj, {"list_index": list_index, "grade": grade}
        # delete: swap-remove keeps the live list dense
        index = self.slot.pop(obj)
        last = self.live.pop()
        if last != obj:
            self.live[index] = last
            self.slot[last] = index
        del self.rows[obj]
        return action, obj, {}

    def snapshot(self) -> tuple[list, np.ndarray]:
        ids = sorted(self.rows)
        return ids, np.array([self.rows[obj] for obj in ids])


def apply_direct(database, action: str, obj, kwargs: dict) -> None:
    if action == "insert":
        database.insert(obj, kwargs["grades"])
    elif action == "update":
        database.update_grade(obj, kwargs["list_index"], kwargs["grade"])
    else:
        database.delete(obj)


def role_rw(job: dict) -> dict:
    from repro import MutableColumnarDatabase, QueryService
    from repro.middleware.cost import AdmissionPolicy

    baseline = hwm_kib()
    wide = np.load(job["inputs"])  # (N, M * datasets): one list set each
    view_spec = QuerySpec(algorithm="ta", aggregation="average", k=10)

    def setup():
        service = QueryService(
            database=MutableColumnarDatabase.from_array(wide),
            admission=AdmissionPolicy(max_active=2),
            wait_timeout=job["op_bound"],
        ).start()
        try:
            return service, service.subscribe(view_spec)["view"]
        except BaseException:
            service.close()
            raise

    service = None
    speed = own_speed()
    try:
        setups, (service, view_id) = timed_setups(
            job, speed, setup, close=lambda started: started[0].close()
        )
        loop = Loop(job, speed)
        stream = MutationStream(wide, job["seed"])
        log = []  # (mutations before it, dataset, query, signature, bill)
        mutate_ms = []
        seq = events = 0
        loop.start()
        issued = 0
        # one step = one query, then one mutation
        while loop.more(issued):
            dataset, query = loop.op(issued)
            key = common.key(dataset, query)
            issued += 1
            mark = loop.begin()
            try:
                handle = service.submit(spec_of(query, dataset))
                result = handle.result(timeout=loop.op_bound)
                bill = handle.bill()
            except Exception:
                loop.end(mark, key, False)
                loop.tally.fail()
                continue
            # verified after the clock stops (below); a wrong answer
            # fails the run there
            loop.end(mark, key, True)
            log.append(
                (stream.count, dataset, query, common.signature(result),
                 bill.as_dict())
            )
            action, obj, kwargs = stream.next()
            mark = loop.begin()
            try:
                service.mutate(action, obj, **kwargs)
            except Exception:
                loop.end(mark, None, False)
                loop.tally.fail()
                break  # the model and the service have diverged
            mutate_ms.append(loop.end(mark, None, True))
            loop.tally.attempted += 1  # an acknowledged mutation
            drained = service.view_events(view_id, after=seq, timeout=0)
            seq = drained["seq"]
            events += len(drained["events"])
        loop.finish()
        rss_peak = loop.hwm_kib - baseline
    finally:
        if service is not None:
            service.close()
        speed.close()
    # the oracle, after the clock stopped: replay the mutation log on
    # the model and build each queried state from scratch
    replay = MutationStream(wide, job["seed"])
    for applied, dataset, query, got, bill in log:
        while replay.count < applied:
            replay.next()
        ids, state = replay.snapshot()
        rows = state[:, dataset * common.M:(dataset + 1) * common.M]
        want = common.reference_signatures(rows, ids, [query])[query.name]
        if loop.tally.check(got, want) and (
            common.bill_signature(bill) != common.expected_bill(want)
        ):
            loop.tally.failed += 1
            loop.tally.mismatched += 1
    return {
        **loop.report(),
        "setup_s": setups,
        "rss_peak_kib": rss_peak,
        "mutate_ms": mutate_ms,
        "view_events": events,
        "spans": [],
    }


ROLES = {
    "engine": role_engine,
    "store": role_store,
    "socket": role_socket,
    "rw": role_rw,
}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    report = ROLES[job["role"]](job)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
