"""Shared pieces of the stack benchmark: the query mix, seeded inputs,
the scalar reference oracle, answer signatures, /proc readers and
child-process hygiene.

Nothing here imports ``repro`` at module load: :func:`import_repro`
puts ``<checkout>/src`` on ``sys.path`` first, so the benchmark always
measures the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: lists per database (every workload)
M = 4


@dataclass(frozen=True)
class Query:
    """One entry of the query mix, named the way the service spells it."""

    family: str  # ta | nra | ca | sc: the per-algorithm latency bucket
    algorithm: str  # repro.server.ALGORITHMS key
    aggregation: str  # repro.server.AGGREGATIONS key
    k: int
    random_cost: float = 1.0

    @property
    def name(self) -> str:
        return f"{self.algorithm}-{self.aggregation}-k{self.k}"


#: The fixed query mix every workload draws from.  NRA-family queries
#: under ``min`` are left out: the scalar NRA loop is quadratic there
#: (seconds per query at N=5k), which would swamp every other query.
MIX = (
    Query("ta", "ta", "average", 10),
    Query("ta", "ta", "min", 3),
    Query("nra", "nra", "average", 10),
    Query("nra", "nra", "sum", 20),
    Query("ca", "ca", "sum", 5, random_cost=5.0),  # cR/cS = 5, so h = 5
    Query("sc", "stream-combine", "average", 10),
)
FAMILIES = ("ta", "nra", "ca", "sc")


def import_repro() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no repro package under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_inputs(seed: int, n: int, datasets: int = 1) -> np.ndarray:
    """The seeded inputs of one run: ``datasets`` independent ``(n, M)``
    uniform grade matrices.  Query cost varies from one draw of the
    grades to the next (TA's halting depth, CA's phases), so a run
    averages over several draws instead of betting on one."""
    return np.random.default_rng(seed).random((datasets, n, M))


def key(dataset: int, query: Query) -> str:
    """Names one (dataset, mix query) pair in references and latencies."""
    return f"{dataset}:{query.name}"


_FAMILY = {q.name: q.family for q in MIX}


def family_of(pair_key: str) -> str:
    return _FAMILY[pair_key.split(":", 1)[1]]


def make_algorithm(query: Query):
    from repro.server import ALGORITHMS

    return ALGORITHMS[query.algorithm]()


def run_engine(query: Query, database):
    """``run_on`` of one mix query: the bare engine call."""
    from repro.middleware.cost import CostModel
    from repro.server import AGGREGATIONS

    return make_algorithm(query).run_on(
        database,
        AGGREGATIONS[query.aggregation],
        query.k,
        CostModel(1.0, query.random_cost),
    )


def signature(result) -> list:
    """Everything the parity contract fixes about one answer: items
    with exact grades, the full ``AccessStats``, and the halt reason --
    as JSON-normal data, so answers from any process compare with
    ``==``."""
    stats = result.stats
    sig = [
        [[item.obj, item.grade] for item in result.items],
        [
            stats.sorted_accesses,
            stats.random_accesses,
            sorted([int(i), c] for i, c in stats.sorted_by_list.items()),
            sorted([int(i), c] for i, c in stats.random_by_list.items()),
            stats.middleware_cost,
            stats.depth,
            stats.distinct_objects_seen,
        ],
        str(result.halt_reason),
    ]
    return json.loads(json.dumps(sig))


def bill_signature(bill: dict) -> list:
    """The part of a service bill the reference fixes."""
    return [
        bill["sorted_accesses"],
        bill["random_accesses"],
        bill["middleware_cost"],
        str(bill["halt_reason"]),
        bill["outcome"],
    ]


def expected_bill(sig: list) -> list:
    stats = sig[1]
    return [stats[0], stats[1], stats[4], sig[2], "ok"]


def reference_signatures(matrix: np.ndarray, object_ids=None, queries=MIX) -> dict:
    """The oracle: each query on the scalar ``Database`` loop, built
    from scratch from the rows."""
    from repro import Database

    database = Database.from_array(matrix, object_ids=object_ids)
    return {q.name: signature(run_engine(q, database)) for q in queries}


def dataset_references(inputs: np.ndarray) -> dict:
    """The oracle for every (dataset, mix query) of a run."""
    return {
        f"{d}:{name}": sig
        for d, rows in enumerate(inputs)
        for name, sig in reference_signatures(rows).items()
    }


class Tally:
    """Operation outcomes of one run: the numerator and denominator of
    the error rate, plus whether every delivered answer was right."""

    def __init__(self, corrupt: bool = False):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        #: smoke-test hook: perturb the first answer checked, which
        #: must then surface as a failure
        self._corrupt = corrupt

    def check(self, got: list, want: list) -> bool:
        self.attempted += 1
        if self._corrupt:
            self._corrupt = False
            got = json.loads(json.dumps(got))
            got[0][0][1] += 1.0
        if got != want:
            self.failed += 1
            self.mismatched += 1
            return False
        return True

    def fail(self) -> None:
        """An operation that errored or overran its per-operation bound."""
        self.attempted += 1
        self.failed += 1

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatched": self.mismatched,
        }


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# /proc readers: per-process, never inherited across fork+exec (unlike
# ru_maxrss, which lives in the signal struct)
# ----------------------------------------------------------------------
def proc_status_kib(pid: int | str = "self") -> dict:
    """``Vm*``/``Rss*`` fields of ``/proc/<pid>/status`` in KiB."""
    fields = {}
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            field, _, rest = line.partition(":")
            parts = rest.split()
            if len(parts) == 2 and parts[1] == "kB":
                fields[field] = int(parts[0])
    return fields


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds, all its threads included."""
    with open(f"/proc/{pid}/stat") as stat:
        raw = stat.read()
    # the command name may hold spaces; fields resume after its ')'
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def self_cpu_s() -> float:
    """CPU seconds of this process, all threads, at clock resolution."""
    return time.process_time()


# ----------------------------------------------------------------------
# child processes and scratch files
# ----------------------------------------------------------------------
_PR_SET_PDEATHSIG = 1


#: The CPU every query process (and the daemon) runs on, and the one
#: the socket client keeps to.  The query service's event loop never
#: sleeps (its idle band re-arms itself every cycle), so with its loop
#: thread and an engine thread on two CPUs each loop round trip waits
#: on a cross-CPU hand-off of the interpreter lock, and runs fall at
#: random into a mode 5-10x slower.  On one CPU they do not.
QUERY_CPU = max(os.sched_getaffinity(0))
CLIENT_CPU = min(os.sched_getaffinity(0))


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    """preexec hook: the kernel SIGKILLs the child when the process
    that spawned it exits, so no daemon outlives a killed benchmark."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def spawn(argv: list[str], cpu: int | None = None, **kwargs) -> subprocess.Popen:
    """Start a child in its own process group, bound to our lifetime,
    with the checkout's ``src`` importable, on ``cpu`` when given."""

    def prepare() -> None:  # pragma: no cover - runs in the child
        _die_with_parent()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(scratch_root())
    return subprocess.Popen(
        argv,
        env=env,
        start_new_session=True,
        preexec_fn=prepare,
        **kwargs,
    )


#: seconds a child gets to exit after SIGTERM before it is SIGKILLed
STOP_GRACE_S = 5.0


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM the child's process group, SIGKILL it after
    ``STOP_GRACE_S``, and reap it."""
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
    # the group may hold grandchildren even after the leader exited
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def scratch_root() -> Path:
    """Scratch space inside the checkout (the benchmark writes nowhere
    else)."""
    root = ROOT / ".stackbench-tmp"
    root.mkdir(exist_ok=True)
    return root


@contextlib.contextmanager
def scratch_dir():
    path = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root()))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root().rmdir()  # only when no other run uses it


def wait_for_line(proc: subprocess.Popen, prefix: str, timeout: float) -> str:
    """The first stdout line of ``proc`` starting with ``prefix``."""
    import selectors

    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line within {timeout}s")
            if not selector.select(remaining):
                continue
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"child exited ({proc.poll()}) before {prefix!r}"
                )
            if line.startswith(prefix):
                return line.strip()
