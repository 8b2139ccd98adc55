"""The residency valve: bounds how much of a store's memory map the
process keeps resident.

A store-backed database reads its segments straight out of one
read-only ``mmap`` of the store file (see
:meth:`~repro.store.format.StoreReader.memmap`).  Touching a page of
that map makes it resident in the process; the kernel never takes a
clean file page back from a live mapping on its own while memory is
plentiful, so a query sweeping a large matrix would keep all of it
resident.  The valve puts a ceiling on that growth without copying a
byte:

* :meth:`ResidencyValve.check` measures the process's file-backed
  resident set (the ``shared`` field of ``/proc/self/statm``, read
  through one held descriptor with ``os.pread``) and, once it has
  grown more than ``budget_bytes`` past the valve's floor, calls
  ``madvise(MADV_DONTNEED)`` over the whole map.  On a shared
  read-only file mapping that drops the page-table entries only: the
  pages stay in the OS page cache, and the next read of any of them
  simply faults it back in.  Arrays already handed out (the
  ``sorted_access_batch`` slices, the segment views themselves) keep
  reading identical bytes, which is why the valve never ``munmap``\\s.
* The engines run it at every chunk boundary (through
  :attr:`~repro.middleware.access.AccessSession.budget_exceeded`, the
  point they already poll) and a session runs it once when it opens.
  The store's random gathers -- TA's speculative ``matrix[rows]`` and
  ``random_access_batch`` -- also run it before each slice of
  :attr:`ResidencyValve.slice_rows` rows (see
  :meth:`~repro.middleware.database.ColumnarDatabase._gather`): one
  fault can map a whole page-cache folio, so one chunk's gathers
  could otherwise map the entire matrix between two chunk
  boundaries.  A matrix no larger than one slice's worst case is not
  sliced at all: slicing could not bound anything there.

The measurement is process-wide, so growth that is not this store's
(another store, a library paging in) can also trip the valve; a
release then frees only this store's pages and re-measures the floor,
so it never fires twice for the same foreign growth.  Where
``/proc/self/statm`` is unavailable every check passes and only
explicit :meth:`ResidencyValve.release_mappings` calls release.

Counters (:meth:`ResidencyValve.snapshot`, and the obs plane when an
:class:`~repro.obs.Observability` is given) count valve events, not
page-cache traffic: ``hits`` are checks that found the growth within
budget, ``misses`` checks that found it over budget (each released
the map), and ``evictions`` the resident pages all releases handed
back, as measured.  None of them ever changes ``AccessStats``: the
valve sits below the ``Database`` API, like ``columnar_view``
speculation.
"""

from __future__ import annotations

import mmap
import os
import threading

from ..obs import NULL_OBS

__all__ = ["DEFAULT_CACHE_BYTES", "ResidencyValve"]

#: default residency budget: small enough that a ≫-RAM dataset stays
#: out of core, large enough that a top-k prefix scan rarely releases
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
#: how much of the map one fault can make resident: kernels with large
#: page-cache folios map the whole folio, up to the 2 MiB PMD size
_FAULT_BYTES = 2 * 1024 * 1024
#: row floor of one gather slice, so tiny budgets do not degenerate
#: into a check per row
_MIN_SLICE_ROWS = 8


class _FileResidentBytes:
    """``/proc/self/statm``'s file-backed resident bytes through one
    held descriptor, reopened in a forked child (the inherited one
    would describe the parent)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pid = -1
        self._fd = -1

    def __call__(self) -> int | None:
        if self._pid != os.getpid():
            with self._lock:
                if self._pid != os.getpid():
                    if self._fd >= 0:
                        os.close(self._fd)
                    try:
                        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
                    except OSError:
                        self._fd = -1
                    self._pid = os.getpid()
        if self._fd < 0:
            return None
        return int(os.pread(self._fd, 128, 0).split()[2]) * mmap.PAGESIZE


#: the process's file-backed (plus shared-memory) resident bytes, or
#: ``None`` where ``/proc`` is unavailable
_file_resident_bytes = _FileResidentBytes()


class ResidencyValve:
    """Releases one store's memory map once the process's file-backed
    resident set has grown ``budget_bytes`` past the valve's floor.

    Thread-safe: one valve serves all of a ``QueryService``'s
    concurrent engine workers, and a release under a concurrent reader
    only makes that reader fault its pages back in.
    """

    def __init__(
        self,
        mapping: mmap.mmap,
        budget_bytes: int = DEFAULT_CACHE_BYTES,
        *,
        matrix_bytes: int = 0,
        obs=None,
    ):
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._mapping = mapping
        rows = max(_MIN_SLICE_ROWS, budget_bytes // _FAULT_BYTES)
        self._slice_rows = None if matrix_bytes <= rows * _FAULT_BYTES else rows
        self._lock = threading.Lock()
        self._floor = _file_resident_bytes() or 0
        self._grown = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        obs = obs if obs is not None else NULL_OBS
        self._m_hits = obs.counter(
            "repro_store_valve_hits_total",
            help="store residency checks within budget",
        )
        self._m_misses = obs.counter(
            "repro_store_valve_misses_total",
            help="store residency checks over budget (each released "
            "the store's map)",
        )
        self._m_evictions = obs.counter(
            "repro_store_released_pages_total",
            help="resident store pages handed back by valve releases",
        )
        self._m_resident = obs.gauge(
            "repro_store_resident_bytes",
            help="file-backed resident growth past the valve's floor "
            "at its last check",
        )

    @property
    def slice_rows(self) -> int | None:
        """Rows per slice of a large random gather, derived from the
        budget; ``None`` when the whole grade matrix is no larger than
        what one slice's faults could map anyway (slicing could not
        bound anything then)."""
        return self._slice_rows

    def check(self) -> bool:
        """Release the map if the file-backed resident set has grown
        past budget; True when it did."""
        with self._lock:
            now = _file_resident_bytes()
            grown = 0 if now is None else now - self._floor
            if grown < 0:  # foreign pages left: follow the floor down
                self._floor, grown = self._floor + grown, 0
            if grown <= self.budget_bytes:
                self._grown = grown
                self.hits += 1
                self._m_hits.inc()
                self._m_resident.set(grown)
                return False
            self.misses += 1
            self._m_misses.inc()
            self._release(now)
            return True

    def release_mappings(self) -> int:
        """Hand every resident page of the map back to the kernel, in
        or over budget (daemons call this between queries); returns the
        resident bytes released, as measured."""
        with self._lock:
            return self._release(_file_resident_bytes())

    def _release(self, before: int | None) -> int:
        self._mapping.madvise(mmap.MADV_DONTNEED)
        after = _file_resident_bytes()
        if before is None or after is None:
            return 0
        released = max(0, before - after)
        self.evictions += released // mmap.PAGESIZE
        self._m_evictions.inc(released // mmap.PAGESIZE)
        self._floor = after
        self._grown = 0
        self._m_resident.set(0)
        return released

    def snapshot(self) -> dict:
        """JSON-safe valve state (the ``store`` block of
        ``QueryService.stats()``)."""
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "mapped_bytes": len(self._mapping),
                "resident_bytes": self._grown,
                "slice_rows": self.slice_rows,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResidencyValve budget={self.budget_bytes}B "
            f"hit={self.hits} miss={self.misses}>"
        )
