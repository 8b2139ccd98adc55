"""The LRU page cache and the paged array proxies it feeds.

Every data byte a store-backed database reads flows through one
:class:`LRUPageCache`: segments are divided into fixed-size **row
pages** (``page_rows`` rows each); a read copies the covering pages
out of the segment's lazy ``np.memmap`` into ordinary in-RAM arrays,
caches them under an LRU policy bounded by ``capacity_bytes``, and
assembles the caller's slice/gather from the cached pages.  Because
pages are *copies*, resident set size is bounded by the cache capacity
plus the transient working set, never by the mapped file -- the OS may
additionally cache mapped file pages, but those are reclaimable and
shared.

Charging contract (the store's half of the paper's cost model): a page
hit, miss or eviction **never** changes ``AccessStats`` -- the cache
sits *below* the :class:`~repro.middleware.database.Database` API,
exactly where ``columnar_view`` speculation lives, and only the
consumed prefix an engine realises through
``sorted_access_batch`` / ``random_access_batch`` is ever billed.  The
differential suite's store axis holds items, halting, tie order,
``AccessStats`` and trace bytes bit-identical to the scalar reference
to enforce this.

The cache is thread-safe: one re-entrant lock guards page lookup /
insertion / eviction, segment map / release, and every byte counter,
because a single cache is shared by all of a ``QueryService``'s
concurrent engine workers (``max_active`` threads in daemon
``--store`` mode).  Returned pages are immutable-by-convention copies,
so readers never need the lock after :meth:`LRUPageCache.page`
returns.

:class:`PagedVector` and :class:`PagedMatrix` present cached segments
with exactly the indexing surface the batched access plane and the
chunked engines use on in-RAM backends: ``len`` / scalar reads /
contiguous slices (returning *fresh* writable arrays -- callers mark
them read-only) for vectors, and row gathers (``matrix[rows]``,
``matrix[rows, i]``, ``matrix[row]``, ``matrix[row, i]``) for the
matrix, plus ``__array__`` so ``np.asarray`` materialises either for
suite-scale verification code.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from itertools import count

import numpy as np

from ..obs.metrics import NULL_INSTRUMENT

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_PAGE_ROWS",
    "LRUPageCache",
    "StoreSegment",
    "PagedVector",
    "PagedMatrix",
]

#: default page-cache capacity: small enough that a ≫-RAM dataset
#: stays out of core, large enough that a top-k prefix scan hits
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
#: rows per page (for the grade matrix one page is
#: ``page_rows * m * 8`` bytes)
DEFAULT_PAGE_ROWS = 4096
#: upper bound on how much of the mapping one page fault can make
#: resident: kernels with multi-order page-cache folios map the whole
#: containing folio (2 MiB today) into the process per fault, so the
#: mapped-budget valve charges every miss this much on top of the
#: bytes actually copied
FAULT_GRANULARITY_BYTES = 2 * 1024 * 1024

_segment_uids = count()


class StoreSegment:
    """One named segment of a store file: a lazy read-only
    ``np.memmap`` plus the row geometry the cache pages it by.

    The map is created on first touch (and registered with the cache's
    mapped-bytes accounting), so opening a store maps *nothing* until
    a query actually reads a list.
    """

    __slots__ = ("reader", "name", "rows", "uid", "_mm", "_cache")

    def __init__(self, reader, name: str, cache: "LRUPageCache"):
        self.reader = reader
        self.name = name
        self.rows = int(reader.segments[name].shape[0])
        self.uid = next(_segment_uids)
        self._mm: np.memmap | None = None
        self._cache = cache
        cache._register(self)

    def mapped(self) -> np.memmap:
        with self._cache._lock:
            mm = self._mm
            if mm is None:
                mm = self.reader.memmap(self.name)
                raw = getattr(mm, "_mmap", None)
                if raw is not None and hasattr(raw, "madvise"):
                    # page-cache reads are exact 4K-page copies;
                    # without this the kernel's fault-around pulls
                    # megabytes of readahead per touched page and the
                    # *file's* resident pages dwarf the page cache
                    # they feed
                    import mmap as _mmap_module

                    raw.madvise(_mmap_module.MADV_RANDOM)
                self._mm = mm
                self._cache._note_mapped(mm.nbytes)
            return mm

    @property
    def mapped_bytes(self) -> int:
        mm = self._mm  # racing release(): read the slot once
        return 0 if mm is None else int(mm.nbytes)

    def release(self) -> None:
        """Drop the lazy map (the next touch re-maps).  File-backed
        pages leave the process's resident set; OS page-cache copies
        remain reclaimable and shared."""
        with self._cache._lock:
            if self._mm is not None:
                self._cache._note_mapped(-self._mm.nbytes)
                self._mm = None


class LRUPageCache:
    """Byte-bounded LRU over fixed-size row pages of store segments.

    All instruments are optional: pass ``obs`` (an
    :class:`~repro.obs.Observability`) to export hit/miss/eviction
    counters and cached/mapped-bytes gauges; without it the counters
    are plain ints surfaced by :meth:`snapshot`.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        page_rows: int = DEFAULT_PAGE_ROWS,
        obs=None,
        mapped_budget_bytes: int | None = None,
    ):
        if capacity_bytes < 1:
            raise ValueError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        if page_rows < 1:
            raise ValueError(f"page_rows must be >= 1, got {page_rows}")
        if mapped_budget_bytes is not None and mapped_budget_bytes < 1:
            raise ValueError(
                "mapped_budget_bytes must be >= 1 or None, got "
                f"{mapped_budget_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.page_rows = page_rows
        #: when set, segments are unmapped after roughly this many
        #: bytes of fresh pages have been touched through the maps --
        #: resident *file* pages (which ``ru_maxrss`` charges to the
        #: process) then stay bounded even for a single query that
        #: sweeps the whole matrix.  ``None`` (the default) never
        #: auto-releases.
        self.mapped_budget_bytes = mapped_budget_bytes
        #: resident-set estimate of pages touched since the last
        #: release.  Each miss is charged ``block.nbytes`` plus
        #: FAULT_GRANULARITY_BYTES: on kernels with large page-cache
        #: folios a single fault can map a whole 2 MiB folio into the
        #: process no matter how few bytes the copy reads (MADV_RANDOM
        #: does not prevent mapping an already-cached folio), so
        #: charging only the copied bytes under-counts residency by up
        #: to 16x and the budget valve never fires.
        self._touched_bytes = 0
        #: guards pages, segment maps and every counter: one cache is
        #: shared by all of a service's concurrent engine workers.
        #: Re-entrant because page() -> StoreSegment.mapped() ->
        #: _note_mapped() and page() -> release_mappings() nest.
        self._lock = threading.RLock()
        self._pages: OrderedDict[tuple[int, int], np.ndarray] = (
            OrderedDict()
        )
        self._segments: list[StoreSegment] = []
        self.cached_bytes = 0
        self.mapped_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if obs is None:
            self._m_hits = self._m_misses = NULL_INSTRUMENT
            self._m_evictions = NULL_INSTRUMENT
            self._m_cached = self._m_mapped = NULL_INSTRUMENT
        else:
            self._m_hits = obs.counter(
                "repro_store_page_hits_total",
                help="store page-cache hits (uncharged, like speculation)",
            )
            self._m_misses = obs.counter(
                "repro_store_page_misses_total",
                help="store page-cache misses (pages copied from mmap)",
            )
            self._m_evictions = obs.counter(
                "repro_store_page_evictions_total",
                help="store pages evicted by the LRU policy",
            )
            self._m_cached = obs.gauge(
                "repro_store_cached_bytes",
                help="bytes of store pages resident in the LRU cache",
            )
            self._m_mapped = obs.gauge(
                "repro_store_mapped_bytes",
                help="bytes of store segments currently memory-mapped",
            )

    def _note_mapped(self, nbytes: int) -> None:
        with self._lock:
            self.mapped_bytes += int(nbytes)
            self._m_mapped.set(self.mapped_bytes)

    def page(self, segment: StoreSegment, index: int) -> np.ndarray:
        """Rows ``[index * page_rows, ...)`` of ``segment``, cached.

        The returned array is shared cache state -- callers must not
        mutate it (the paged proxies only copy out of it).
        """
        with self._lock:
            key = (segment.uid, index)
            block = self._pages.get(key)
            if block is not None:
                self._pages.move_to_end(key)
                self.hits += 1
                self._m_hits.inc()
                return block
            self.misses += 1
            self._m_misses.inc()
            lo = index * self.page_rows
            hi = min(lo + self.page_rows, segment.rows)
            block = np.array(segment.mapped()[lo:hi], order="C")
            self._pages[key] = block
            self.cached_bytes += block.nbytes
            while (
                self.cached_bytes > self.capacity_bytes
                and len(self._pages) > 1
            ):
                _, evicted = self._pages.popitem(last=False)
                self.cached_bytes -= evicted.nbytes
                self.evictions += 1
                self._m_evictions.inc()
            self._m_cached.set(self.cached_bytes)
            if self.mapped_budget_bytes is not None:
                self._touched_bytes += (
                    block.nbytes + FAULT_GRANULARITY_BYTES
                )
                if self._touched_bytes >= self.mapped_budget_bytes:
                    self.release_mappings()
            return block

    def _register(self, segment: StoreSegment) -> None:
        with self._lock:
            self._segments.append(segment)

    def clear(self) -> None:
        """Drop every cached page (mapped segments stay mapped)."""
        with self._lock:
            self._pages.clear()
            self.cached_bytes = 0
            self._m_cached.set(0)

    def release_mappings(self) -> int:
        """Unmap every lazily-mapped segment and return the bytes
        released.  Cached pages survive (they are copies), and the next
        read through an unmapped segment transparently re-maps it --
        long-running daemons call this between queries to hand resident
        mapped file pages back to the OS without losing the cache."""
        with self._lock:
            released = 0
            for segment in self._segments:
                released += segment.mapped_bytes
                segment.release()
            self._touched_bytes = 0
            return released

    def snapshot(self) -> dict:
        """JSON-safe cache state (the ``store`` block of
        ``QueryService.stats()``)."""
        with self._lock:
            return {
                "capacity_bytes": self.capacity_bytes,
                "page_rows": self.page_rows,
                "pages": len(self._pages),
                "cached_bytes": self.cached_bytes,
                "mapped_bytes": self.mapped_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LRUPageCache pages={len(self._pages)} "
            f"{self.cached_bytes}/{self.capacity_bytes}B "
            f"hit={self.hits} miss={self.misses}>"
        )


class PagedVector:
    """A one-dimensional segment read through the page cache.

    Mirrors the slice of the ndarray API the access plane and engines
    use on ``_order_rows[i]`` / ``_order_grades[i]`` (and on run
    triples): ``len``, scalar indexing, contiguous slicing (fresh
    writable arrays), ``np.asarray`` materialisation, ``tolist``.
    """

    __slots__ = ("_segment", "_cache", "_dtype")

    def __init__(
        self,
        segment: StoreSegment,
        cache: LRUPageCache,
        dtype=None,
    ):
        self._segment = segment
        self._cache = cache
        self._dtype = dtype

    def __len__(self) -> int:
        return self._segment.rows

    @property
    def shape(self) -> tuple[int]:
        return (self._segment.rows,)

    @property
    def size(self) -> int:
        return self._segment.rows

    def _read(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` as one fresh array."""
        cache = self._cache
        page_rows = cache.page_rows
        n = max(0, stop - start)
        first = cache.page(self._segment, start // page_rows) if n else None
        if first is not None and stop <= (start // page_rows + 1) * page_rows:
            lo = start - (start // page_rows) * page_rows
            out = np.array(first[lo : lo + n])
        else:
            out = np.empty(n, dtype=self._raw_dtype())
            filled = 0
            position = start
            while position < stop:
                index = position // page_rows
                block = cache.page(self._segment, index)
                lo = position - index * page_rows
                take = min(stop - position, len(block) - lo)
                out[filled : filled + take] = block[lo : lo + take]
                filled += take
                position += take
        if self._dtype is not None:
            return out.astype(self._dtype, copy=False)
        return out

    def _raw_dtype(self):
        return np.dtype(self._segment.reader.segments[self._segment.name].dtype)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step == 1:
                return self._read(start, stop)
            indices = np.arange(start, stop, step, dtype=np.intp)
            if not indices.size:
                dtype = self._dtype or self._raw_dtype()
                return np.empty(0, dtype=dtype)
            lo, hi = int(indices.min()), int(indices.max()) + 1
            return self._read(lo, hi)[indices - lo]
        i = operator.index(key)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(
                f"index {key} out of range for length {n}"
            )
        page_rows = self._cache.page_rows
        value = self._cache.page(self._segment, i // page_rows)[
            i - (i // page_rows) * page_rows
        ]
        if self._dtype is not None:
            return value.astype(self._dtype)
        return value

    def __array__(self, dtype=None, copy=None):
        out = self._read(0, len(self))
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        return out

    def astype(self, dtype, copy: bool = True) -> np.ndarray:
        return self.__array__(dtype)

    def tolist(self) -> list:
        return self.__array__().tolist()

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PagedVector {self._segment.name!r} "
            f"len={self._segment.rows}>"
        )


class PagedMatrix:
    """The ``(N, m)`` grade matrix read through the page cache.

    Supports the gather patterns of the batched access plane and the
    chunked engines -- ``matrix[rows]`` (2-D row gather),
    ``matrix[rows, i]`` (column gather), ``matrix[row]`` and
    ``matrix[row, i]`` -- plus ``shape`` / ``__array__`` / ``copy`` /
    ``tolist`` for verification code.  An optional row window
    ``[row_lo, row_hi)`` presents a shard's contiguous block with
    local row indexing (the store twin of
    ``ShardedDatabase._shard_matrices``), and an optional column subset
    presents a list projection: column ``j`` reads stored column
    ``cols[j]``, and gathers copy only those columns out of the pages.
    """

    __slots__ = ("_segment", "_cache", "_row_lo", "_row_hi", "_cols", "_m")

    def __init__(
        self,
        segment: StoreSegment,
        cache: LRUPageCache,
        row_lo: int = 0,
        row_hi: int | None = None,
        cols: np.ndarray | None = None,
    ):
        self._segment = segment
        self._cache = cache
        self._row_lo = row_lo
        self._row_hi = segment.rows if row_hi is None else row_hi
        self._cols = cols
        self._m = (
            int(segment.reader.segments[segment.name].shape[1])
            if cols is None
            else len(cols)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self._row_hi - self._row_lo, self._m)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self):
        return np.dtype(np.float64)

    def __len__(self) -> int:
        return self._row_hi - self._row_lo

    def window(self, row_lo: int, row_hi: int) -> "PagedMatrix":
        """A view of global rows ``[row_lo, row_hi)`` with local
        indexing (shares this matrix's segment and cache)."""
        return PagedMatrix(
            self._segment, self._cache, row_lo, row_hi, self._cols
        )

    def columns(self, cols) -> "PagedMatrix":
        """A view whose column ``j`` is this matrix's column
        ``cols[j]`` (shares the segment, cache and row window)."""
        cols = np.asarray(cols, dtype=np.intp)
        if cols.ndim != 1 or (
            cols.size and (cols.min() < 0 or cols.max() >= self._m)
        ):
            raise IndexError(
                f"columns {cols.tolist()} out of range for {self._m} lists"
            )
        if self._cols is not None:
            cols = self._cols[cols]
        return PagedMatrix(
            self._segment, self._cache, self._row_lo, self._row_hi, cols
        )

    # ------------------------------------------------------------------
    # gathers
    # ------------------------------------------------------------------
    def _row(self, i: int) -> np.ndarray:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        row = i + self._row_lo
        page_rows = self._cache.page_rows
        block = self._cache.page(self._segment, row // page_rows)
        values = block[row - (row // page_rows) * page_rows]
        return np.array(values if self._cols is None else values[self._cols])

    def _gather(self, rows: np.ndarray, col: int | None):
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise IndexError(
                f"row index must be one-dimensional, got shape {rows.shape}"
            )
        if rows.dtype == np.bool_:
            # ndarray semantics: a boolean index is a mask over all
            # rows, never row numbers 0/1
            if rows.shape[0] != len(self):
                raise IndexError(
                    f"boolean mask of length {rows.shape[0]} does not "
                    f"match {len(self)} rows"
                )
            rows = np.flatnonzero(rows)
        rows = rows.astype(np.intp, copy=False) + self._row_lo
        if rows.size and (
            rows.min() < self._row_lo or rows.max() >= self._row_hi
        ):
            raise IndexError("row index out of range")
        cache = self._cache
        page_rows = cache.page_rows
        if col is None:
            out = np.empty((len(rows), self._m), dtype=np.float64)
        else:
            out = np.empty(len(rows), dtype=np.float64)
        if not rows.size:
            return out
        # one sort by page, then one contiguous run of the sort order
        # per distinct page: O(R log R + pages)
        order = np.argsort(rows // page_rows, kind="stable")
        sorted_rows = rows[order]
        sorted_pages = sorted_rows // page_rows
        cuts = np.flatnonzero(sorted_pages[1:] != sorted_pages[:-1]) + 1
        cols = self._cols
        if col is not None and cols is not None:
            col = int(cols[col])
        for lo, hi in zip(
            [0, *cuts.tolist()], [*cuts.tolist(), len(sorted_rows)]
        ):
            p = int(sorted_pages[lo])
            block = cache.page(self._segment, p)
            local = sorted_rows[lo:hi] - p * page_rows
            if col is not None:
                out[order[lo:hi]] = block[local, col]
            elif cols is None:
                out[order[lo:hi]] = block[local]
            else:
                out[order[lo:hi]] = block[local[:, None], cols]
        return out

    def __getitem__(self, key):
        if isinstance(key, tuple):
            if len(key) != 2:
                raise IndexError(
                    f"expected at most 2 indices, got {len(key)}"
                )
            rows, col = key
            if isinstance(col, slice):
                if col != slice(None):
                    raise IndexError(
                        "only full-column slices are supported"
                    )
                col = None
            else:
                col = operator.index(col)
                if col < 0:
                    col += self._m
                if not 0 <= col < self._m:
                    raise IndexError(
                        f"column {key[1]} out of range for {self._m} lists"
                    )
            if isinstance(rows, (int, np.integer)):
                row = self._row(int(rows))
                return row if col is None else row[col]
            return self._gather(rows, col)
        if isinstance(key, (int, np.integer)):
            return self._row(int(key))
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            rows = np.arange(start, stop, step, dtype=np.intp)
            return self._gather(rows, None)
        return self._gather(key, None)

    # ------------------------------------------------------------------
    # materialisation (verification paths only; O(N * m) memory)
    # ------------------------------------------------------------------
    def __array__(self, dtype=None, copy=None):
        rows = np.arange(len(self), dtype=np.intp)
        out = self._gather(rows, None)
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        return out

    def copy(self) -> np.ndarray:
        return self.__array__()

    def tolist(self) -> list:
        return self.__array__().tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PagedMatrix shape={self.shape}>"
