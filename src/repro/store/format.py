"""The on-disk store format (v3) and its reader/writer.

Format v3 is the third generation of this repository's persistence
formats and the first one designed to be *memory-mapped* rather than
loaded:

* v1 -- ``.npz`` with grades only (orderings re-sorted on load);
* v2 -- ``.npz`` with grades + per-list order arrays + optional shard
  layout (``repro-database-npz-v2``, see
  :mod:`repro.middleware.serialization`);
* v3 -- this format: an explicit binary header followed by raw
  little-endian array segments at stated offsets, so a reader can
  ``np.memmap`` each segment *lazily* (per list, per shard) and open a
  multi-gigabyte store in O(1) time and memory.

Layout::

    magic      12 bytes  b"repro-store\\x00"
    version    u32 LE    3
    header_len u32 LE    length of the JSON header that follows
    header     JSON (utf-8): shape, ids, shard layout, segment table
    padding    zeros up to a 64-byte boundary
    segments   raw little-endian array data, each 64-byte aligned

The header's segment table maps segment names to ``{offset, dtype,
shape}``.  Segment names: ``grades`` (the ``(N, m)`` float64 grade
matrix), ``order_rows/<i>`` / ``order_grades/<i>`` (list ``i``'s
merged global order), and -- when the store carries a shard layout
with more than one shard -- ``run_rows/<i>/<s>`` /
``run_grades/<i>/<s>`` / ``run_ties/<i>/<s>`` (shard ``s``'s sorted
run of list ``i``, exactly the ``(rows, grades, ties)`` triples of
:class:`~repro.middleware.database.ShardedDatabase`).

No-trust discipline (same contract as the wire codec): every
structural property -- magic, version, header bounds, JSON shape,
segment offsets against the real file size and against each other
(no two segments may overlap) -- is checked **before any
``np.memmap`` is created**; violations raise
:class:`~repro.middleware.errors.StoreFormatError`.  A file written by
a *newer* format version is refused outright with a clear message
rather than half-read.  Legacy v1/v2 ``.npz`` files are detected by
their zip magic and loaded through
:func:`~repro.middleware.serialization.load_npz` (correct results, no
out-of-core benefit) -- the upgrade path is
:func:`save_store`-ing the loaded database.
"""

from __future__ import annotations

import io
import json
import os
import struct
import weakref
from pathlib import Path

import numpy as np

from ..middleware.database import Database, ShardedDatabase
from ..middleware.mutable import MutableDatabase
from ..middleware.errors import StoreFormatError

__all__ = [
    "STORE_MAGIC",
    "STORE_VERSION",
    "StoreReader",
    "StoreWriter",
    "save_store",
    "is_npz_file",
]

STORE_MAGIC = b"repro-store\x00"
STORE_VERSION = 3
_FORMAT_NAME = "repro-store"

#: segment data alignment (covers every SIMD load width numpy uses)
_ALIGN = 64

_U32 = struct.Struct("<I")
_FIXED_BYTES = len(STORE_MAGIC) + 2 * _U32.size

#: dtypes a v3 segment may carry (little-endian, 8-byte elements --
#: the only array dtypes the rest of the repository persists)
_SEGMENT_DTYPES = {"<f8", "<i8"}
_ITEMSIZE = 8

#: zip local-file-header magic: how legacy ``.npz`` (v1/v2) files are
#: recognised without trusting their extension
_ZIP_MAGIC = b"PK\x03\x04"


def is_npz_file(path: str | Path) -> bool:
    """True when ``path`` starts with the zip magic -- a legacy v1/v2
    ``.npz`` database rather than a v3 store."""
    try:
        with open(path, "rb") as f:
            return f.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC
    except OSError:
        return False


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_nbytes(shape: tuple[int, ...]) -> int:
    n = _ITEMSIZE
    for dim in shape:
        n *= dim
    return n


class _SegmentSpec:
    """One entry of the header's segment table."""

    __slots__ = ("name", "offset", "dtype", "shape")

    def __init__(self, name: str, offset: int, dtype: str,
                 shape: tuple[int, ...]):
        self.name = name
        self.offset = offset
        self.dtype = dtype
        self.shape = shape

    @property
    def nbytes(self) -> int:
        return _segment_nbytes(self.shape)

    def as_header(self) -> dict:
        return {
            "offset": self.offset,
            "dtype": self.dtype,
            "shape": list(self.shape),
        }


def _plan_segments(
    n: int,
    m: int,
    run_lengths: list[list[int]] | None,
) -> tuple[dict[str, _SegmentSpec], int]:
    """The v3 segment table for a database of the given shape: names,
    dtypes and aligned offsets (offset 0 = placeholder, patched once
    the header size is known).  Returns ``(table, data_nbytes)``."""
    specs: list[tuple[str, str, tuple[int, ...]]] = [
        ("grades", "<f8", (n, m)),
    ]
    for i in range(m):
        specs.append((f"order_rows/{i}", "<i8", (n,)))
        specs.append((f"order_grades/{i}", "<f8", (n,)))
    if run_lengths is not None:
        for i in range(m):
            for s, length in enumerate(run_lengths[i]):
                specs.append((f"run_rows/{i}/{s}", "<i8", (length,)))
                specs.append((f"run_grades/{i}/{s}", "<f8", (length,)))
                specs.append((f"run_ties/{i}/{s}", "<i8", (length,)))
    table: dict[str, _SegmentSpec] = {}
    offset = 0
    for name, dtype, shape in specs:
        offset = _align(offset)
        table[name] = _SegmentSpec(name, offset, dtype, shape)
        offset += _segment_nbytes(shape)
    return table, offset


def _expected_segments(
    n: int, m: int, shard_bounds: list[int]
) -> dict[str, tuple[int, ...] | None]:
    """Required segment names -> expected shape (``None`` for the
    per-run segments, whose lengths the header itself declares but
    which must sum to ``n`` per list)."""
    expected: dict[str, tuple[int, ...] | None] = {"grades": (n, m)}
    for i in range(m):
        expected[f"order_rows/{i}"] = (n,)
        expected[f"order_grades/{i}"] = (n,)
    num_shards = len(shard_bounds) - 1
    if num_shards > 1:
        for i in range(m):
            for s in range(num_shards):
                expected[f"run_rows/{i}/{s}"] = None
                expected[f"run_grades/{i}/{s}"] = None
                expected[f"run_ties/{i}/{s}"] = None
    return expected


class StoreReader:
    """Validated, lazily-mapping view of one v3 store file.

    Construction reads and fully validates the header (magic, version,
    bounds, segment table) without creating a single ``np.memmap`` --
    O(header) work regardless of data size.  :meth:`memmap` maps one
    segment on demand, read-only.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            # held for the reader's lifetime: the header is validated
            # against, and every segment maps, this one inode -- a
            # store re-saved (renamed over) ``path`` after the open
            # never leaks into this reader's pages
            f = self._file = open(self.path, "rb")
            weakref.finalize(self, f.close)
            file_size = os.fstat(f.fileno()).st_size
            fixed = f.read(_FIXED_BYTES)
            if len(fixed) < _FIXED_BYTES:
                raise StoreFormatError(
                    f"{self.path}: truncated store header "
                    f"({len(fixed)} of {_FIXED_BYTES} fixed bytes)"
                )
            magic = fixed[: len(STORE_MAGIC)]
            if magic != STORE_MAGIC:
                if magic[: len(_ZIP_MAGIC)] == _ZIP_MAGIC:
                    raise StoreFormatError(
                        f"{self.path}: legacy .npz database, not a "
                        "v3 store (open it via open_store, which "
                        "falls back to load_npz)"
                    )
                raise StoreFormatError(
                    f"{self.path}: not a repro-store file "
                    f"(bad magic {magic!r})"
                )
            version = _U32.unpack_from(fixed, len(STORE_MAGIC))[0]
            if version > STORE_VERSION:
                raise StoreFormatError(
                    f"{self.path}: store format version {version} is "
                    f"newer than this build understands (reads up to "
                    f"v{STORE_VERSION}); refusing to guess -- upgrade "
                    "the reader or rewrite the store with save_store"
                )
            if version < STORE_VERSION:
                raise StoreFormatError(
                    f"{self.path}: store format version {version} "
                    f"never existed as a binary store (v1/v2 are the "
                    ".npz formats); expected v3"
                )
            header_len = _U32.unpack_from(
                fixed, len(STORE_MAGIC) + _U32.size
            )[0]
            if header_len == 0 or _FIXED_BYTES + header_len > file_size:
                raise StoreFormatError(
                    f"{self.path}: truncated store header (announces "
                    f"{header_len} header bytes, file holds "
                    f"{file_size - _FIXED_BYTES} past the magic)"
                )
            raw_header = f.read(header_len)
            if len(raw_header) < header_len:
                raise StoreFormatError(
                    f"{self.path}: truncated store header"
                )
        except OSError as exc:
            raise StoreFormatError(
                f"{path}: cannot read store header: {exc}"
            ) from exc
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreFormatError(
                f"{self.path}: corrupt store header: {exc}"
            ) from None
        self.version = version
        self._file_size = file_size
        self._validate_header(header)

    # ------------------------------------------------------------------
    # header validation (all pre-mmap)
    # ------------------------------------------------------------------
    def _validate_header(self, header) -> None:
        path = self.path
        if not isinstance(header, dict):
            raise StoreFormatError(f"{path}: store header is not an object")
        if header.get("format") != _FORMAT_NAME:
            raise StoreFormatError(
                f"{path}: header format field is "
                f"{header.get('format')!r}, expected {_FORMAT_NAME!r}"
            )
        n = header.get("n")
        m = header.get("m")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise StoreFormatError(f"{path}: bad object count {n!r}")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise StoreFormatError(f"{path}: bad list count {m!r}")
        bounds = header.get("shard_bounds")
        if (
            not isinstance(bounds, list)
            or len(bounds) < 2
            or not all(
                isinstance(b, int) and not isinstance(b, bool)
                for b in bounds
            )
            or bounds[0] != 0
            or bounds[-1] != n
            or any(b > c for b, c in zip(bounds, bounds[1:]))
        ):
            raise StoreFormatError(
                f"{path}: shard bounds {bounds!r} do not partition 0..{n}"
            )
        ids = header.get("ids")
        if ids is not None:
            if (
                not isinstance(ids, dict)
                or not isinstance(ids.get("int"), list)
                or not isinstance(ids.get("values"), list)
                or len(ids["int"]) != n
                or len(ids["values"]) != n
            ):
                raise StoreFormatError(
                    f"{path}: malformed explicit object-id table"
                )
        raw_segments = header.get("segments")
        if not isinstance(raw_segments, dict):
            raise StoreFormatError(f"{path}: missing segment table")
        segments: dict[str, _SegmentSpec] = {}
        for name, entry in raw_segments.items():
            if not isinstance(entry, dict):
                raise StoreFormatError(
                    f"{path}: segment {name!r} entry is not an object"
                )
            offset = entry.get("offset")
            dtype = entry.get("dtype")
            shape = entry.get("shape")
            if (
                not isinstance(offset, int)
                or isinstance(offset, bool)
                or offset < _FIXED_BYTES
            ):
                raise StoreFormatError(
                    f"{path}: segment {name!r} has bad offset {offset!r}"
                )
            if dtype not in _SEGMENT_DTYPES:
                raise StoreFormatError(
                    f"{path}: segment {name!r} has unsupported dtype "
                    f"{dtype!r}"
                )
            if (
                not isinstance(shape, list)
                or not shape
                or len(shape) > 2
                or not all(
                    isinstance(d, int) and not isinstance(d, bool) and d >= 0
                    for d in shape
                )
            ):
                raise StoreFormatError(
                    f"{path}: segment {name!r} has bad shape {shape!r}"
                )
            spec = _SegmentSpec(name, offset, dtype, tuple(shape))
            if offset + spec.nbytes > self._file_size:
                raise StoreFormatError(
                    f"{path}: segment {name!r} extends to byte "
                    f"{offset + spec.nbytes}, past the file's "
                    f"{self._file_size} bytes (truncated store?)"
                )
            segments[name] = spec
        # zero-length segments (empty shard runs) occupy no bytes and
        # legitimately share their aligned offset with a neighbour
        ordered = sorted(
            (s for s in segments.values() if s.nbytes),
            key=lambda s: s.offset,
        )
        for a, b in zip(ordered, ordered[1:]):
            if a.offset + a.nbytes > b.offset:
                raise StoreFormatError(
                    f"{path}: segments {a.name!r} and {b.name!r} "
                    f"overlap (bytes {b.offset} to {a.offset + a.nbytes} "
                    "are claimed by both)"
                )
        for name, shape in _expected_segments(n, m, bounds).items():
            spec = segments.get(name)
            if spec is None:
                raise StoreFormatError(
                    f"{path}: store is missing segment {name!r}"
                )
            if shape is not None and spec.shape != shape:
                raise StoreFormatError(
                    f"{path}: segment {name!r} has shape "
                    f"{spec.shape}, expected {shape}"
                )
        num_shards = len(bounds) - 1
        if num_shards > 1:
            for i in range(m):
                total = sum(
                    segments[f"run_rows/{i}/{s}"].shape[0]
                    for s in range(num_shards)
                )
                if total != n:
                    raise StoreFormatError(
                        f"{path}: list {i}'s shard runs cover {total} "
                        f"rows, expected {n}"
                    )
                for s in range(num_shards):
                    length = segments[f"run_rows/{i}/{s}"].shape[0]
                    for kind in ("run_grades", "run_ties"):
                        other = segments[f"{kind}/{i}/{s}"].shape
                        if other != (length,):
                            raise StoreFormatError(
                                f"{path}: run segments of list {i} "
                                f"shard {s} disagree in length"
                            )
        self.num_objects = n
        self.num_lists = m
        self.shard_bounds = list(bounds)
        self._ids_header = ids
        self.segments = segments

    @property
    def num_shards(self) -> int:
        return len(self.shard_bounds) - 1

    def object_ids(self) -> list | None:
        """The explicit object ids, or ``None`` when ids are the
        trivial ``0 .. N-1`` ints (the O(1)-open case)."""
        if self._ids_header is None:
            return None
        return [
            int(value) if is_int else str(value)
            for is_int, value in zip(
                self._ids_header["int"], self._ids_header["values"]
            )
        ]

    def memmap(self, name: str) -> np.memmap:
        """Map one segment read-only (the *only* place data bytes are
        touched; callers go through the page cache)."""
        spec = self.segments.get(name)
        if spec is None:
            raise StoreFormatError(
                f"{self.path}: no segment named {name!r}"
            )
        return np.memmap(
            self._file,
            dtype=np.dtype(spec.dtype),
            mode="r",
            offset=spec.offset,
            shape=spec.shape,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StoreReader {self.path} v{self.version} "
            f"N={self.num_objects} m={self.num_lists} "
            f"S={self.num_shards}>"
        )


def _merge_intervals(
    intervals: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Sorted, coalesced row intervals (adjacent ranges merge)."""
    merged: list[tuple[int, int]] = []
    for start, stop in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if stop > merged[-1][1]:
                merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


class StoreWriter:
    """Streaming v3 writer: declare the shape up front, fill segments
    block by block, in any order.

    The constructor computes the full segment table, writes the header
    and pre-sizes the file; :meth:`write` appends one block of rows to
    a segment at an explicit row offset, so a ≫-RAM dataset can be
    written with O(block) memory.  Use as a context manager.

    The write is atomic: blocks go to a temporary file next to
    ``path``, and only a complete store is fsynced and renamed onto
    ``path``.  A reader that has the old store mapped keeps reading the
    old inode, so re-saving a store under a live reader neither
    crashes it nor feeds it a mix of old and new pages.

    A store is only valid once every declared row of every segment has
    been written: because the file is pre-sized with a complete header,
    a partial file would pass every :class:`StoreReader` structural
    check and silently serve zeros.  :meth:`close` therefore verifies
    coverage (tracked as written row intervals, so interior holes are
    caught too) and **deletes** the temporary file before raising
    :class:`~repro.middleware.errors.StoreFormatError` when anything is
    missing; leaving the ``with`` block via an exception likewise
    discards it (:meth:`abort`).  Either way an existing store at
    ``path`` is left untouched.
    """

    def __init__(
        self,
        path: str | Path,
        num_objects: int,
        num_lists: int,
        *,
        object_ids: list | None = None,
        shard_bounds: list[int] | None = None,
        run_lengths: list[list[int]] | None = None,
    ):
        if num_objects < 1 or num_lists < 1:
            raise StoreFormatError(
                f"store must be non-empty, got N={num_objects} "
                f"m={num_lists}"
            )
        self.path = Path(path)
        n, m = num_objects, num_lists
        bounds = list(shard_bounds) if shard_bounds is not None else [0, n]
        if len(bounds) - 1 > 1 and run_lengths is None:
            raise StoreFormatError(
                "a sharded store needs per-(list, shard) run lengths"
            )
        if len(bounds) - 1 <= 1:
            run_lengths = None
        table, _ = _plan_segments(n, m, run_lengths)
        ids_header = None
        if object_ids is not None:
            ids_header = {
                "int": [isinstance(obj, int) for obj in object_ids],
                "values": [str(obj) for obj in object_ids],
            }
        header = {
            "format": _FORMAT_NAME,
            "version": STORE_VERSION,
            "n": n,
            "m": m,
            "ids": ids_header,
            "shard_bounds": bounds,
            "segments": {},  # patched below once offsets are final
        }
        # two-pass header sizing: segment offsets depend on the header
        # length, which depends on the offsets' digit counts -- iterate
        # until stable (converges in <= 3 rounds; offsets only grow)
        data_start = _FIXED_BYTES
        while True:
            candidate = _align(data_start)
            header["segments"] = {
                name: _SegmentSpec(
                    name, candidate + spec.offset, spec.dtype, spec.shape
                ).as_header()
                for name, spec in table.items()
            }
            raw = json.dumps(header, sort_keys=True).encode("utf-8")
            needed = _FIXED_BYTES + len(raw)
            if _align(needed) == candidate:
                break
            data_start = needed
        self._segments = {
            name: _SegmentSpec(
                name,
                entry["offset"],
                entry["dtype"],
                tuple(entry["shape"]),
            )
            for name, entry in header["segments"].items()
        }
        self._written: dict[str, list[tuple[int, int]]] = {}
        total = max(
            spec.offset + spec.nbytes for spec in self._segments.values()
        )
        self._tmp_path = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.{id(self):x}.tmp"
        )
        self._file: io.BufferedRandom | None = open(self._tmp_path, "x+b")
        self._file.write(STORE_MAGIC)
        self._file.write(_U32.pack(STORE_VERSION))
        self._file.write(_U32.pack(len(raw)))
        self._file.write(raw)
        self._file.truncate(total)

    def _require_open(self) -> io.BufferedRandom:
        if self._file is None:
            raise StoreFormatError(f"{self.path}: writer already closed")
        return self._file

    def write(self, name: str, block, row_offset: int = 0) -> None:
        """Write ``block`` (rows of segment ``name``) starting at row
        ``row_offset``; blocks are coerced to the segment dtype."""
        f = self._require_open()
        spec = self._segments.get(name)
        if spec is None:
            raise StoreFormatError(f"no segment named {name!r}")
        arr = np.ascontiguousarray(block, dtype=np.dtype(spec.dtype))
        if arr.ndim != len(spec.shape) or arr.shape[1:] != spec.shape[1:]:
            raise StoreFormatError(
                f"segment {name!r}: block shape {arr.shape} does not "
                f"match segment shape {spec.shape}"
            )
        rows = arr.shape[0]
        if row_offset < 0 or row_offset + rows > spec.shape[0]:
            raise StoreFormatError(
                f"segment {name!r}: rows [{row_offset}, "
                f"{row_offset + rows}) fall outside its {spec.shape[0]} "
                "rows"
            )
        row_nbytes = spec.nbytes // spec.shape[0] if spec.shape[0] else 0
        f.seek(spec.offset + row_offset * row_nbytes)
        f.write(arr.tobytes())
        if rows:
            self._written.setdefault(name, []).append(
                (row_offset, row_offset + rows)
            )

    def _incomplete_segments(self) -> list[str]:
        missing = []
        for name, spec in self._segments.items():
            rows = spec.shape[0]
            if not rows:
                continue
            merged = _merge_intervals(self._written.get(name, []))
            if merged != [(0, rows)]:
                covered = sum(stop - start for start, stop in merged)
                missing.append(f"{name!r} ({covered}/{rows} rows)")
        return missing

    def abort(self) -> None:
        """Discard the store: close the handle and delete the temporary
        file, leaving ``path`` as it was.  No-op after a successful
        :meth:`close`."""
        if self._file is None:
            return
        self._file.close()
        self._file = None
        try:
            self._tmp_path.unlink()
        except OSError:  # pragma: no cover - already gone / unlinkable
            pass

    def close(self) -> None:
        if self._file is None:
            return
        missing = self._incomplete_segments()
        if missing:
            self.abort()
            shown = ", ".join(missing[:5])
            if len(missing) > 5:
                shown += f", ... ({len(missing)} segments in all)"
            raise StoreFormatError(
                f"{self.path}: store closed with incompletely written "
                f"segments: {shown} -- the partial file was deleted"
            )
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        os.replace(self._tmp_path, self.path)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # the body failed part-way: a pre-sized file with a valid
            # header would read back as silent zeros -- discard it
            self.abort()
        else:
            self.close()


def save_store(db: Database, path: str | Path) -> None:
    """Persist ``db`` to a v3 store file.

    The columnar form's grade matrix and per-list merged order arrays
    are written always; a :class:`~repro.middleware.database
    .ShardedDatabase` with more than one shard additionally persists
    its per-(list, shard) runs and shard layout, so an
    ``open_store``-ed copy shards identically -- tie order,
    ``AccessStats`` and trace bytes included.  A mutable database is
    persisted as its compacted :meth:`snapshot`.
    """
    if isinstance(db, MutableDatabase):
        db = db.snapshot()
    col = db.to_columnar()
    n, m = col.num_objects, col.num_lists
    ids = None if col._trivial_ids else list(col._ids)
    bounds: list[int] | None = None
    run_lengths: list[list[int]] | None = None
    sharded = db if isinstance(db, ShardedDatabase) else None
    if sharded is not None and sharded.num_shards > 1:
        bounds = [int(b) for b in sharded.shard_bounds]
        run_lengths = [
            [len(run[0]) for run in sharded.list_runs(i)] for i in range(m)
        ]
    with StoreWriter(
        path,
        n,
        m,
        object_ids=ids,
        shard_bounds=bounds,
        run_lengths=run_lengths,
    ) as w:
        w.write("grades", np.asarray(col._matrix, dtype=np.float64))
        for i in range(m):
            w.write(
                f"order_rows/{i}",
                np.asarray(col._order_rows[i], dtype=np.int64),
            )
            w.write(
                f"order_grades/{i}",
                np.asarray(col._order_grades[i], dtype=np.float64),
            )
        if sharded is not None and run_lengths is not None:
            for i in range(m):
                for s, (rows, grades, ties) in enumerate(
                    sharded.list_runs(i)
                ):
                    w.write(
                        f"run_rows/{i}/{s}",
                        np.asarray(rows, dtype=np.int64),
                    )
                    w.write(
                        f"run_grades/{i}/{s}",
                        np.asarray(grades, dtype=np.float64),
                    )
                    w.write(
                        f"run_ties/{i}/{s}",
                        np.asarray(ties, dtype=np.int64),
                    )
