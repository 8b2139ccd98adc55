"""In-process simulated remote services.

Each simulated service wraps local data -- a per-attribute graded list,
or one shard's sorted run of one list -- behind the asynchronous
:class:`~repro.services.protocol.RemoteGradedSource` contract, with
three composable behaviour models:

:class:`LatencyModel`
    every service call sleeps ``base + jitter`` (jitter drawn from a
    seeded RNG, so runs are reproducible).  ``asyncio.sleep`` means
    concurrent calls to *different* services overlap -- the whole point
    of the async plane.
:class:`FailureModel`
    scripted and/or probabilistic failure injection per call:
    ``timeout`` and ``transient`` failures are retryable, ``permanent``
    kills the service for good.  Deterministic under a seed.
:class:`RetryPolicy`
    the client-side stub's retry budget.  Retryable failures are
    re-attempted up to ``max_attempts`` times (with optional backoff);
    exhaustion raises the matching
    :class:`~repro.middleware.errors.RemoteServiceError` subclass, and
    a permanent failure raises
    :class:`~repro.middleware.errors.ServiceUnavailableError`
    immediately.

A failed call raises *before* any data is served, so the session layer
never charges for it -- failure injection can delay or abort a run but
can never corrupt the access accounting (asserted by the failure tests).
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..middleware.access import ListCapabilities
from ..middleware.errors import (
    DatabaseError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
    UnknownObjectError,
)
from .protocol import RunPage, SortedPage, check_window

__all__ = [
    "LatencyModel",
    "FailureModel",
    "RetryPolicy",
    "SimulatedListService",
    "ShardRunService",
]

#: failure kinds understood by :class:`FailureModel` scripts
_KINDS = ("timeout", "transient", "permanent")


@dataclass(frozen=True)
class LatencyModel:
    """Per-call latency: ``base`` seconds plus uniform jitter in
    ``[0, jitter]``, drawn from a seeded RNG."""

    base: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.base < 0 or self.jitter < 0:
            raise ValueError("latency base and jitter must be >= 0")

    def sampler(self) -> "random.Random":
        return random.Random(self.seed)

    def delay(self, rng: "random.Random") -> float:
        if self.jitter:
            return self.base + rng.random() * self.jitter
        return self.base


@dataclass(frozen=True)
class FailureModel:
    """Failure injection per service call.

    ``script`` maps a 0-based call index to a failure kind
    (``"timeout"`` / ``"transient"`` / ``"permanent"``) for exact,
    deterministic tests; ``timeout_rate`` / ``transient_rate`` inject
    probabilistic failures from a seeded RNG on the calls the script
    does not mention.  Every *attempt* (including retries) counts as
    one call.
    """

    script: Mapping[int, str] = field(default_factory=dict)
    timeout_rate: float = 0.0
    transient_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for kind in self.script.values():
            if kind not in _KINDS:
                raise ValueError(
                    f"unknown failure kind {kind!r}; expected one of {_KINDS}"
                )
        if not (0.0 <= self.timeout_rate <= 1.0) or not (
            0.0 <= self.transient_rate <= 1.0
        ):
            raise ValueError("failure rates must be in [0, 1]")

    def sampler(self) -> "random.Random":
        return random.Random(self.seed)

    def verdict(self, call_index: int, rng: "random.Random") -> str | None:
        scripted = self.script.get(call_index)
        if scripted is not None:
            return scripted
        if self.timeout_rate or self.transient_rate:
            draw = rng.random()
            if draw < self.timeout_rate:
                return "timeout"
            if draw < self.timeout_rate + self.transient_rate:
                return "transient"
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """Client-stub retry budget for retryable (timeout/transient)
    failures, with seeded exponential backoff.

    The delay before retry number ``a`` (1-based) is::

        min(backoff * multiplier ** (a - 1), max_backoff)
        * (1 + U(-jitter, jitter))

    with ``U`` drawn from a per-stub RNG seeded with ``seed`` -- so a
    fixed seed gives a bit-reproducible delay schedule, while distinct
    stubs (distinct seeds) desynchronise their retries instead of
    hammering a briefly-unavailable service in lockstep (the retry
    storm the earlier fixed-delay policy produced).  The defaults
    (``backoff=0``) keep retries immediate, matching the previous
    behaviour.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    multiplier: float = 2.0
    max_backoff: float | None = None
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff is not None and self.max_backoff < 0:
            raise ValueError(
                f"max_backoff must be >= 0, got {self.max_backoff}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def sampler(self) -> "random.Random":
        """The per-stub jitter RNG (deterministic under the seed)."""
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to sleep before retrying after failed attempt number
        ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff * self.multiplier ** (attempt - 1)
        if self.max_backoff is not None:
            base = min(base, self.max_backoff)
        if self.jitter and rng is not None and base:
            base *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return base


class _SimulatedEndpoint:
    """Shared latency / failure / retry plumbing of the simulated
    services and of the query server's source ops.  Each
    network-shaped operation calls :meth:`_call` once per page or
    batch; the method sleeps, consults the failure model, and retries
    retryable failures within the policy."""

    def __init__(
        self,
        name: str,
        latency: LatencyModel | None = None,
        failures: FailureModel | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.name = name
        self._latency = latency or LatencyModel()
        self._failures = failures or FailureModel()
        self._retry = retry or RetryPolicy()
        self._latency_rng = self._latency.sampler()
        self._failure_rng = self._failures.sampler()
        self._retry_rng = self._retry.sampler()
        self._calls = 0
        self._dead = False
        #: total attempts that were failed by injection (observability
        #: for tests and benchmarks; not part of any charging)
        self.failed_attempts = 0

    @property
    def calls(self) -> int:
        """Number of attempts this service has served (retries count)."""
        return self._calls

    async def _call(self) -> None:
        if self._dead:
            raise ServiceUnavailableError(self.name)
        attempts = 0
        while True:
            attempts += 1
            index = self._calls
            self._calls += 1
            delay = self._latency.delay(self._latency_rng)
            if delay:
                await asyncio.sleep(delay)
            verdict = self._failures.verdict(index, self._failure_rng)
            if verdict is None:
                return
            self.failed_attempts += 1
            if verdict == "permanent":
                self._dead = True
                raise ServiceUnavailableError(self.name, attempts)
            if attempts >= self._retry.max_attempts:
                if verdict == "timeout":
                    raise ServiceTimeoutError(self.name, attempts)
                raise ServiceTransientError(self.name, attempts)
            pause = self._retry.delay(attempts, self._retry_rng)
            if pause:
                await asyncio.sleep(pause)


class SimulatedListService(_SimulatedEndpoint):
    """One attribute's graded list behind the remote protocol.

    ``entries`` must already be in the authoritative sorted order
    (grade non-increasing); tie placement is preserved exactly as
    given, like :meth:`~repro.middleware.database.Database.from_columns`
    -- the simulated service *is* the authority on its tie order.
    """

    def __init__(
        self,
        name: str,
        entries: Iterable[tuple[Hashable, float]],
        *,
        supports_sorted: bool = True,
        supports_random: bool = True,
        latency: LatencyModel | None = None,
        failures: FailureModel | None = None,
        retry: RetryPolicy | None = None,
    ):
        super().__init__(name, latency, failures, retry)
        self._entries = [(obj, float(g)) for obj, g in entries]
        if not self._entries:
            raise DatabaseError(f"service {name!r} has no entries")
        previous = None
        self._grades: dict[Hashable, float] = {}
        for obj, grade in self._entries:
            if previous is not None and grade > previous + 1e-15:
                raise DatabaseError(
                    f"service {name!r} entries are not sorted descending "
                    f"at object {obj!r}"
                )
            previous = grade
            if obj in self._grades:
                raise DatabaseError(
                    f"service {name!r} graded object {obj!r} twice"
                )
            self._grades[obj] = grade
        self.supports_sorted = supports_sorted
        self.supports_random = supports_random

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def objects(self) -> set[Hashable]:
        return set(self._grades)

    def capabilities(self) -> ListCapabilities:
        return ListCapabilities(
            sorted_allowed=self.supports_sorted,
            random_allowed=self.supports_random,
        )

    async def page(self, start: int, count: int) -> SortedPage:
        """One stateless page: entries ``[start, start + count)`` of
        the sorted list, one service call (latency and failure
        injection included)."""
        check_window(start, count)
        await self._call()
        page = self._entries[start : start + count]
        return SortedPage([obj for obj, _ in page], [g for _, g in page])

    async def random_access_batch(
        self, objects: Sequence[Hashable]
    ) -> list[float]:
        await self._call()
        grades = self._grades
        out: list[float] = []
        for obj in objects:
            grade = grades.get(obj)
            if grade is None:
                raise UnknownObjectError(obj)
            out.append(grade)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        modes = "".join(
            flag
            for flag, on in (
                ("S", self.supports_sorted),
                ("R", self.supports_random),
            )
            if on
        )
        return (
            f"<SimulatedListService {self.name!r} n={len(self._entries)} "
            f"modes={modes or '-'}>"
        )


class ShardRunService(_SimulatedEndpoint):
    """One shard's sorted run of one list as a remote service.

    This is the distributed twin of
    :class:`~repro.middleware.database.ShardedDatabase`'s per-shard run
    storage: the service serves its ``(rows, grades, ties)`` triple in
    pages, already sorted by the merge key *(grade desc, tie asc)*, and
    a :class:`~repro.middleware.database.ListMergeCursor` over the
    gathered runs reconstructs the exact global sorted order --
    bit-for-bit, tie placement included -- no matter how the page
    arrivals interleaved.
    """

    def __init__(
        self,
        name: str,
        rows: np.ndarray,
        grades: np.ndarray,
        ties: np.ndarray,
        *,
        latency: LatencyModel | None = None,
        failures: FailureModel | None = None,
        retry: RetryPolicy | None = None,
    ):
        super().__init__(name, latency, failures, retry)
        if not (len(rows) == len(grades) == len(ties)):
            raise DatabaseError(
                f"service {name!r}: run arrays disagree in length"
            )
        self._rows = np.asarray(rows, dtype=np.intp)
        self._grades = np.asarray(grades, dtype=np.float64)
        self._ties = np.asarray(ties, dtype=np.int64)

    @property
    def num_entries(self) -> int:
        return len(self._rows)

    async def run_page(self, start: int, count: int) -> RunPage:
        """One stateless page: entries ``[start, start + count)`` of
        the run, one service call."""
        check_window(start, count)
        await self._call()
        stop = start + count
        return RunPage(
            self._rows[start:stop],
            self._grades[start:stop],
            self._ties[start:stop],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardRunService {self.name!r} n={len(self._rows)}>"
