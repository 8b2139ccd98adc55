"""Shared sorted-stream scans: one cursor per list, many queries.

The paper's cost model is per *query*: each query pays ``cS`` for
every sorted entry **it** consumes.  A server running many concurrent
queries over the same lists would naively open one sorted cursor per
(query, list) and pay the service latency once per consumer.  The scan
cache collapses that: per list there is **one**
:class:`~repro.services.session.SharedListScan` -- one cursor paging
the source (:func:`~repro.services.protocol.read_pages`) whose pages
append to an immutable-prefix materialization -- and every query's
:class:`~repro.services.session.ServiceSession` reads that prefix at
its own pace.

The accounting contract survives untouched because sharing happens
*below* the charged access plane:

* the materialized prefix is append-only and global -- a query reading
  position ``p`` sees exactly the entries a solo run would have seen
  at ``p`` (sorted order is the service's, fixed, tie order included);
* a query is charged by its own session only for positions it
  consumed; pages pulled because a *deeper* query demanded them are
  uncharged speculation for everyone shallower -- precisely the
  contract a private scan's readahead and
  :meth:`~repro.middleware.access.AccessSession.columnar_view` already
  obey;
* random accesses are never shared: they are per-query probes, charged
  and performed by each query's own session.

``shared=False`` is the control arm: each checkout gets fresh private
scans over the same machinery, owned and stopped by its session, so
the cache itself holds nothing for them.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence

from ..middleware.errors import DatabaseError
from ..services.protocol import RemoteGradedSource
from ..services.session import ServiceSession, SharedListScan

__all__ = ["ScanCache"]


class ScanCache:
    """Per-list shared scans over ``m`` services, and session checkout.

    ``shared=True`` (the point of the cache): every checkout over list
    ``i`` attaches to the *same* :class:`SharedListScan`, so ``Q``
    concurrent queries drive one cursor per list.  ``shared=False`` is
    the control arm for the benchmark: checkouts get private scans with
    identical machinery, so measured differences are pure scan sharing.

    Loop-affine: construct and use on the event loop that owns the
    services' I/O.
    """

    def __init__(
        self,
        services: Sequence[RemoteGradedSource],
        loop: asyncio.AbstractEventLoop,
        *,
        batch_size: int = 64,
        readahead_pages: int = 2,
        shared: bool = True,
    ):
        if not services:
            raise DatabaseError("need at least one service")
        self._services = list(services)
        self._loop = loop
        self._batch_size = batch_size
        self._readahead_pages = readahead_pages
        self.shared = shared
        self._scans: list[SharedListScan] | None = (
            [self._new_scan(s) for s in self._services] if shared else None
        )

    def _new_scan(self, source: RemoteGradedSource) -> SharedListScan:
        return SharedListScan(
            source,
            self._loop,
            batch_size=self._batch_size,
            readahead_pages=self._readahead_pages,
        )

    @property
    def num_lists(self) -> int:
        return len(self._services)

    def scan(self, list_index: int) -> SharedListScan:
        """The shared scan for one list (``shared=True`` only)."""
        if self._scans is None:
            raise DatabaseError("cache is in private-scan mode")
        return self._scans[list_index]

    def scans_for(self, lists: Sequence[int]) -> list[SharedListScan]:
        """Scans over ``lists``: the cache's own when shared, fresh
        ones the caller owns (and must stop) when private."""
        if self._scans is not None:
            return [self._scans[i] for i in lists]
        return [self._new_scan(self._services[i]) for i in lists]

    def checkout(
        self,
        lists: Sequence[int] | None = None,
        *,
        query_id: str = "query",
        **session_kwargs,
    ) -> ServiceSession:
        """A per-query accounted session over ``lists`` (default: all),
        reading the cache's shared scans, or private ones the session
        stops when it closes.  ``session_kwargs`` pass through to
        :class:`~repro.services.session.ServiceSession`."""
        if lists is None:
            lists = range(len(self._services))
        lists = list(lists)
        for i in lists:
            if not (0 <= i < len(self._services)):
                raise DatabaseError(
                    f"list index {i} out of range for m={len(self._services)}"
                )
        if len(set(lists)) != len(lists):
            raise DatabaseError(f"duplicate list indices in {lists}")
        services = [self._services[i] for i in lists]
        return ServiceSession(
            services,
            self.scans_for(lists),
            self._loop,
            private=not self.shared,
            query_id=query_id,
            **session_kwargs,
        )

    def stats(self) -> dict:
        """Cache-level observability: per-list materialization, pages
        fetched, attachment high-water marks (no scans when private:
        those live and die with their sessions)."""
        scans = self._scans or []
        return {
            "shared": self.shared,
            "scans": [
                {
                    "name": scan.name,
                    "materialized": scan.materialized(),
                    "pages_fetched": scan.pages_fetched,
                    "attached": scan.attached,
                    "peak_attached": scan.peak_attached,
                }
                for scan in scans
            ],
        }

    async def aclose(self) -> None:
        """Stop every shared fetcher (loop-side, idempotent)."""
        for scan in self._scans or []:
            await scan.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "shared" if self.shared else "private"
        return f"<ScanCache m={len(self._services)} {mode}>"
