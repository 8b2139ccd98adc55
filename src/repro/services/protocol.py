"""The remote-source protocol: what an autonomous graded subsystem
looks like to the middleware.

Section 1 of the paper is explicit that the ``m`` graded lists live in
*separate autonomous subsystems* -- QBIC answering ``Color='red'``, a
video server scoring ``Format=MPEG``.  Every access therefore crosses a
service boundary with its own latency, and the dominant execution cost
of a real middleware is communication, not local compute.  This module
pins down the asynchronous wire contract the rest of
:mod:`repro.services` builds on:

* :class:`RemoteGradedSource` -- one attribute's service.  It serves
  *stateless* pages of its graded list best-first (*sorted access*:
  ``page(start, count)``) and answers named-object grade probes
  (*random access*), both asynchronously.
* :class:`RunStreamSource` -- one shard's sorted run of one list,
  served the same way (``run_page(start, count)``).
* :class:`SortedPage` / :class:`RunPage` -- one page of a list / of a
  run.
* :func:`read_pages` -- the one sequential reader: it pages a source
  from position 0 to its end.  The middleware owns every cursor (the
  paper's depth ``d_i``); a source only answers "the entries at these
  positions", so a retried or failed-over page is idempotent.

The protocol deliberately mirrors the two access modes of Section 2 and
nothing else: capabilities (a web search engine that forbids random
access; a source that forbids sorted access, Section 7) are declared
exactly like :class:`~repro.middleware.sources.GradedSource` does, and
``num_entries`` is ``N`` -- the paper's model takes the database size
as known (it appears in the cost bounds).

Charging stays with the session: a service serves bytes, the
:class:`~repro.services.session.AsyncAccessSession` decides what is an
*access* and charges it with the exact semantics of the synchronous
plane.  Prefetched-but-unconsumed pages are therefore uncharged
speculation, the asynchronous sibling of the
:meth:`~repro.middleware.access.AccessSession.columnar_view` contract.
"""

from __future__ import annotations

from collections.abc import AsyncIterator, Awaitable, Callable, Sequence
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Protocol, TypeVar, runtime_checkable

import numpy as np

from ..middleware.access import ListCapabilities

__all__ = [
    "SortedPage",
    "RunPage",
    "RemoteGradedSource",
    "RunStreamSource",
    "check_window",
    "read_pages",
]


@dataclass(frozen=True)
class SortedPage:
    """One page of a sorted list: ``len(objects)`` consecutive entries,
    best grade first, ties in the service's authoritative order."""

    objects: list
    grades: list[float]

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(zip(self.objects, self.grades))


class RunPage(NamedTuple):
    """One page of a shard run: parallel ``(rows, grades, ties)``
    arrays, already in merge-key order *(grade desc, tie asc)*."""

    rows: np.ndarray
    grades: np.ndarray
    ties: np.ndarray


@runtime_checkable
class RemoteGradedSource(Protocol):
    """Structural protocol for one attribute's remote service.

    Implementations include the in-process simulated services of
    :mod:`repro.services.simulated`; a real deployment would satisfy it
    with an HTTP/RPC client.  All methods may raise the
    :class:`~repro.middleware.errors.RemoteServiceError` family (after
    whatever client-side retry policy the implementation applies) and
    :class:`~repro.middleware.errors.UnknownObjectError` for random
    access to an id the service has never graded.
    """

    name: str

    @property
    def num_entries(self) -> int:
        """``N`` -- how many objects this service has graded."""
        ...

    @property
    def supports_sorted(self) -> bool:
        ...

    @property
    def supports_random(self) -> bool:
        ...

    def capabilities(self) -> ListCapabilities:
        """The per-list capability vector entry this service induces."""
        ...

    async def page(self, start: int, count: int) -> SortedPage:
        """Entries ``[start, start + count)`` of the sorted list (short
        or empty past the end), one service call.  Stateless: the
        caller keeps the cursor (:func:`read_pages`)."""
        ...

    async def random_access_batch(
        self, objects: Sequence[Hashable]
    ) -> list[float]:
        """Grades of ``objects``, positionally (one service round trip
        for the whole batch)."""
        ...


@runtime_checkable
class RunStreamSource(Protocol):
    """One shard's sorted run of one list, served remotely.

    Satisfied by the in-process
    :class:`~repro.services.simulated.ShardRunService` and by the
    transport-backed :class:`~repro.transport.client.NetworkRunSource`;
    :func:`~repro.services.assemble.fetch_merged_orders` accepts any
    grid of these.
    """

    name: str

    @property
    def num_entries(self) -> int:
        ...

    async def run_page(self, start: int, count: int) -> RunPage:
        """Entries ``[start, start + count)`` of the run (short or
        empty past the end), one service call."""
        ...


def check_window(start: int, count: int) -> None:
    """Refuse a page request that is negative or empty (a negative
    start would slice from the end of the list)."""
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")


_Page = TypeVar("_Page", SortedPage, RunPage)


async def read_pages(
    read: Callable[[int, int], Awaitable[_Page]],
    num_entries: int,
    batch_size: int,
) -> AsyncIterator[_Page]:
    """Page a source from position 0: ``await read(start, batch_size)``
    at consecutive starts, yielding each page, until ``num_entries``
    entries are in or a page comes back empty.

    ``read`` is a source's ``page`` or ``run_page``.  This is the one
    sequential reader over sources: the scans, the column drain and
    the run gather all use it, so paging ``N`` entries at ``b`` makes
    exactly ``ceil(N / b)`` calls, ``(0, b), (b, b), ...``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    position = 0
    while position < num_entries:
        page = await read(position, batch_size)
        if not len(page.grades):
            return
        position += len(page.grades)
        yield page
