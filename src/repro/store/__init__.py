"""Out-of-core storage: the v3 memory-mapped columnar store.

The :mod:`repro.store` package persists a database -- grade matrix,
per-list sorted orders, and (when sharded) the per-(list, shard) run
triples -- into a single versioned binary file, and serves the
``Database`` API straight off that file: the backends' internals are
read-only arrays viewing one ``mmap`` of it, so the engines read
exactly the bytes they touch and copy nothing.  A
:class:`ResidencyValve` bounds what the map keeps resident
(``cache_bytes``) with ``madvise(MADV_DONTNEED)``, run at the engines'
chunk boundaries and before each slice of a large store's random
gathers.  Opening a store is O(1) in data size; a top-k query's
resident set is proportional to the prefix the paper's cost model
bills, not to N.  See the "Out-of-core store" section of
ARCHITECTURE.md for the format layout and the valve's contract.
"""

from __future__ import annotations

from .backend import (
    StoreBackedDatabase,
    StoreBackedShardedDatabase,
    open_store,
)
from .format import (
    STORE_MAGIC,
    STORE_VERSION,
    StoreReader,
    StoreWriter,
    is_npz_file,
    save_store,
)
from .valve import DEFAULT_CACHE_BYTES, ResidencyValve

__all__ = [
    "STORE_MAGIC",
    "STORE_VERSION",
    "DEFAULT_CACHE_BYTES",
    "StoreReader",
    "StoreWriter",
    "save_store",
    "is_npz_file",
    "ResidencyValve",
    "StoreBackedDatabase",
    "StoreBackedShardedDatabase",
    "open_store",
]
