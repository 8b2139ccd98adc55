"""The v3 on-disk store: format discipline, versioning, paging.

The no-trust rules of the wire codec apply to files: every structural
check -- magic, version, header shape, segment bounds -- runs *before*
any ``np.memmap`` is created, so corrupt or truncated files raise the
:class:`~repro.middleware.errors.WireFormatError` family instead of
being mapped and read as garbage.  Versioning is explicit: legacy
v1/v2 ``.npz`` files load through the same :func:`open_store` entry
point (fully in RAM, same results), and a future-version file is
refused with a message saying so.

The mapped internals are tested for exact equivalence: every array a
store-backed database reads is a read-only view of the file's one
memory map and must be bit-identical to the plain in-RAM array, across
slices, projections, sliced gathers and residency-valve releases.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.aggregation import AVERAGE, MIN, SUM
from repro.core import CombinedAlgorithm, ThresholdAlgorithm
from repro.datagen import synthetic
from repro.middleware.database import (
    ColumnarDatabase,
    Database,
    ShardedDatabase,
)
from repro.middleware.errors import (
    DatabaseError,
    StoreFormatError,
    WireFormatError,
)
from repro.store import (
    STORE_MAGIC,
    STORE_VERSION,
    StoreBackedDatabase,
    StoreBackedShardedDatabase,
    StoreReader,
    StoreWriter,
    open_store,
    save_store,
)
from repro.store import valve as valve_module

from tests.helpers import write_v2_npz


@pytest.fixture
def db():
    return synthetic.correlated(120, 3, seed=5)


def _store(tmp_path, db, name="db.store", shards=None):
    path = tmp_path / name
    source = db if shards is None else db.to_sharded(shards)
    save_store(source, path)
    return path


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_plain_store_round_trips_bit_exact(self, tmp_path, db):
        path = _store(tmp_path, db)
        loaded = open_store(path, validate=True)
        assert isinstance(loaded, StoreBackedDatabase)
        col = db.to_columnar()
        assert loaded.num_objects == col.num_objects
        assert loaded.num_lists == col.num_lists
        assert list(loaded._ids) == list(col._ids)
        assert np.array_equal(np.asarray(loaded._matrix), col._matrix)
        for agg in (MIN, SUM, AVERAGE):
            assert loaded.top_k(agg, 7) == col.top_k(agg, 7)
            assert loaded.overall_grades(agg) == col.overall_grades(agg)
        for i in range(col.num_lists):
            for pos in (0, 1, 57, col.num_objects - 1):
                assert loaded.sorted_entry(i, pos) == col.sorted_entry(
                    i, pos
                )
        assert (
            loaded.satisfies_distinctness() == col.satisfies_distinctness()
        )

    def test_sharded_store_round_trips_bit_exact(self, tmp_path, db):
        path = _store(tmp_path, db, shards=4)
        loaded = open_store(path, validate=True)
        assert isinstance(loaded, StoreBackedShardedDatabase)
        sharded = db.to_sharded(4)
        assert loaded.num_shards == 4
        assert np.array_equal(loaded.shard_bounds, sharded.shard_bounds)
        assert loaded.top_k(MIN, 9) == sharded.top_k(MIN, 9)
        for i in range(db.num_lists):
            for pos in (0, 3, 77, db.num_objects - 1):
                assert loaded.sorted_entry(i, pos) == sharded.sorted_entry(
                    i, pos
                )
        for obj in list(db.to_columnar()._ids)[:5]:
            for i in range(db.num_lists):
                assert loaded.grade(obj, i) == sharded.grade(obj, i)

    def test_trivial_int_ids_open_without_id_table(self, tmp_path):
        db = synthetic.uniform(64, 2, seed=1)
        path = _store(tmp_path, db)
        reader = StoreReader(path)
        assert reader.object_ids() is None  # ids 0..N-1 elided
        loaded = open_store(path, validate=True)
        assert loaded._trivial_ids
        assert list(loaded._ids) == list(range(64))
        assert loaded.rows_for([5, 0, 63]) .tolist() == [5, 0, 63]

    def test_string_ids_round_trip(self, tmp_path):
        grades = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        db = Database.from_array(
            grades, object_ids=["alpha", "beta", "gamma"]
        )
        path = _store(tmp_path, db)
        loaded = open_store(path, validate=True)
        assert list(loaded._ids) == ["alpha", "beta", "gamma"]
        assert loaded.top_k(MIN, 2) == db.to_columnar().top_k(MIN, 2)
        assert loaded.grade("beta", 1) == 0.5

    def test_adversarial_tie_order_survives(self, tmp_path):
        from repro.datagen import example_8_3

        db = example_8_3(40).database
        col = db.to_columnar()
        path = _store(tmp_path, db)
        loaded = open_store(path, validate=True)
        for i in range(db.num_lists):
            for pos in range(db.num_objects):
                assert loaded.sorted_entry(i, pos) == col.sorted_entry(
                    i, pos
                )

    def test_save_store_accepts_sharded_and_rebuilds_runs(
        self, tmp_path, db
    ):
        sharded = db.to_sharded(3)
        path = tmp_path / "s.store"
        save_store(sharded, path)
        loaded = open_store(path, validate=True)
        assert isinstance(loaded, StoreBackedShardedDatabase)
        for i in range(db.num_lists):
            for s in range(3):
                rows, grades, ties = loaded._runs[i][s]
                ref_rows, ref_grades, ref_ties = sharded.list_runs(i)[s]
                assert np.array_equal(np.asarray(rows), ref_rows)
                assert np.array_equal(np.asarray(grades), ref_grades)
                assert np.array_equal(np.asarray(ties), ref_ties)


# ---------------------------------------------------------------------------
# legacy formats through the same door
# ---------------------------------------------------------------------------
class TestLegacyLoad:
    def test_v2_npz_loads_through_open_store(self, tmp_path, db):
        path = tmp_path / "legacy.npz"
        write_v2_npz(db, path)
        loaded = open_store(path)
        assert isinstance(loaded, ColumnarDatabase)
        assert not isinstance(loaded, StoreBackedDatabase)
        assert loaded.top_k(MIN, 5) == db.to_columnar().top_k(MIN, 5)

    def test_v2_sharded_npz_loads_through_open_store(self, tmp_path, db):
        path = tmp_path / "legacy-sharded.npz"
        write_v2_npz(db.to_sharded(4), path)
        loaded = open_store(path)
        assert isinstance(loaded, ShardedDatabase)
        assert loaded.num_shards == 4
        assert loaded.top_k(SUM, 5) == db.to_sharded(4).top_k(SUM, 5)

    def test_v1_npz_without_order_arrays_loads(self, tmp_path, db):
        col = db.to_columnar()
        ids = list(col._ids)
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            format=np.array("repro-database-npz-v2"),
            grades=col._matrix,
            object_ids=np.array([str(obj) for obj in ids]),
            int_ids=np.array([isinstance(obj, int) for obj in ids]),
        )
        loaded = open_store(path)
        assert isinstance(loaded, Database)
        assert loaded.top_k(MIN, 5) == db.top_k(MIN, 5)

    def test_store_rewrite_of_legacy_npz_is_equivalent(self, tmp_path, db):
        npz = tmp_path / "old.npz"
        write_v2_npz(db, npz)
        legacy = open_store(npz)
        rewritten = tmp_path / "new.store"
        save_store(legacy, rewritten)
        upgraded = open_store(rewritten, validate=True)
        assert isinstance(upgraded, StoreBackedDatabase)
        col = db.to_columnar()
        assert upgraded.top_k(AVERAGE, 6) == col.top_k(AVERAGE, 6)
        for i in range(db.num_lists):
            assert np.array_equal(
                np.asarray(upgraded._order_rows[i], dtype=np.intp),
                np.asarray(col._order_rows[i], dtype=np.intp),
            )


# ---------------------------------------------------------------------------
# refusal: corrupt, truncated, future
# ---------------------------------------------------------------------------
class TestRefusal:
    def test_wrong_magic_refused(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"not-a-store-file" * 4)
        with pytest.raises(StoreFormatError, match="magic"):
            StoreReader(path)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.store"
        path.write_bytes(b"")
        with pytest.raises(StoreFormatError, match="truncated"):
            StoreReader(path)

    def test_future_version_refused_with_clear_message(self, tmp_path, db):
        path = _store(tmp_path, db)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, len(STORE_MAGIC), STORE_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="refusing to guess"):
            StoreReader(path)

    def test_pre_binary_version_refused(self, tmp_path, db):
        path = _store(tmp_path, db)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, len(STORE_MAGIC), 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="npz"):
            StoreReader(path)

    def test_corrupt_header_json_refused(self, tmp_path, db):
        path = _store(tmp_path, db)
        raw = bytearray(path.read_bytes())
        raw[len(STORE_MAGIC) + 8] ^= 0xFF  # first header byte
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="corrupt store header"):
            StoreReader(path)

    def test_truncated_header_refused(self, tmp_path, db):
        path = _store(tmp_path, db)
        path.write_bytes(path.read_bytes()[: len(STORE_MAGIC) + 10])
        with pytest.raises(StoreFormatError, match="truncated"):
            StoreReader(path)

    def test_truncated_data_refused_before_mmap(self, tmp_path, db):
        path = _store(tmp_path, db)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(StoreFormatError, match="truncated store"):
            StoreReader(path)

    def test_segment_outside_file_refused(self, tmp_path, db):
        path = _store(tmp_path, db)
        reader = StoreReader(path)
        raw = bytearray(path.read_bytes())
        header_len = struct.unpack_from(
            "<I", raw, len(STORE_MAGIC) + 4
        )[0]
        start = len(STORE_MAGIC) + 8
        header = json.loads(raw[start : start + header_len].decode())
        header["segments"]["grades"]["offset"] = reader._file_size * 2
        patched = json.dumps(header, sort_keys=True).encode()
        prefix = STORE_MAGIC + struct.pack(
            "<II", STORE_VERSION, len(patched)
        )
        path.write_bytes(bytes(prefix + patched + raw[start + header_len:]))
        with pytest.raises(StoreFormatError):
            StoreReader(path)

    def test_missing_required_segment_refused(self, tmp_path, db):
        path = _store(tmp_path, db)
        raw = bytearray(path.read_bytes())
        header_len = struct.unpack_from(
            "<I", raw, len(STORE_MAGIC) + 4
        )[0]
        start = len(STORE_MAGIC) + 8
        header = json.loads(raw[start : start + header_len].decode())
        del header["segments"]["order_rows/0"]
        patched = json.dumps(header, sort_keys=True).encode()
        assert len(patched) <= header_len
        raw[start : start + header_len] = patched.ljust(header_len, b" ")
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="order_rows/0"):
            StoreReader(path)

    def test_overlapping_segments_refused(self, tmp_path, db):
        """A crafted header whose segments alias the same bytes is
        structurally invalid: without this check every read would pass
        bounds validation yet serve another segment's data."""
        path = _store(tmp_path, db)
        raw = bytearray(path.read_bytes())
        header_len = struct.unpack_from(
            "<I", raw, len(STORE_MAGIC) + 4
        )[0]
        start = len(STORE_MAGIC) + 8
        header = json.loads(raw[start : start + header_len].decode())
        header["segments"]["order_rows/0"]["offset"] = header[
            "segments"
        ]["grades"]["offset"]
        patched = json.dumps(header, sort_keys=True).encode()
        assert len(patched) <= header_len
        raw[start : start + header_len] = patched.ljust(header_len, b" ")
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="overlap"):
            StoreReader(path)

    def test_store_error_is_wire_format_family(self):
        assert issubclass(StoreFormatError, WireFormatError)

    def test_refusal_happens_before_any_mapping(self, tmp_path, db):
        """A refused file never reaches np.memmap: the reader raises
        out of the constructor, before any segment object exists."""
        path = _store(tmp_path, db)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, len(STORE_MAGIC), STORE_VERSION + 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError):
            open_store(path)

    def test_sharded_reader_refused_as_plain_and_vice_versa(
        self, tmp_path, db
    ):
        plain = StoreReader(_store(tmp_path, db, name="p.store"))
        with pytest.raises(DatabaseError, match="no shard layout"):
            StoreBackedShardedDatabase(plain)


# ---------------------------------------------------------------------------
# writer discipline: a store is valid only when completely written
# ---------------------------------------------------------------------------
class TestWriterDiscipline:
    """The constructor pre-sizes the file under a fully valid header,
    so a partial store would pass every reader check and serve zeros;
    the writer must refuse to finalise one."""

    def test_incomplete_close_deletes_file_and_raises(self, tmp_path):
        path = tmp_path / "partial.store"
        w = StoreWriter(path, 32, 2)
        w.write("grades", np.zeros((32, 2)))
        w.write("order_rows/0", np.arange(32))
        w.write("order_grades/0", np.zeros(32))
        # list 1's order segments never written
        with pytest.raises(StoreFormatError, match="incompletely"):
            w.close()
        assert not path.exists()

    def test_interior_hole_is_caught(self, tmp_path):
        path = tmp_path / "hole.store"
        with pytest.raises(StoreFormatError, match="order_rows/0"):
            with StoreWriter(path, 32, 1) as w:
                w.write("grades", np.zeros((32, 1)))
                w.write("order_grades/0", np.zeros(32))
                w.write("order_rows/0", np.arange(8), row_offset=0)
                # rows [8, 16) never written: max-row tracking would
                # miss this, interval coverage does not
                w.write("order_rows/0", np.arange(16, 32), row_offset=16)
        assert not path.exists()

    def test_body_exception_discards_partial_file(self, tmp_path):
        path = tmp_path / "boom.store"
        with pytest.raises(RuntimeError, match="boom"):
            with StoreWriter(path, 16, 1) as w:
                w.write("grades", np.zeros((16, 1)))
                raise RuntimeError("boom")
        assert not path.exists()

    def test_complete_blockwise_write_is_readable(self, tmp_path):
        path = tmp_path / "ok.store"
        with StoreWriter(path, 24, 1) as w:
            for lo in range(0, 24, 8):
                w.write(
                    "grades", np.full((8, 1), 0.5), row_offset=lo
                )
            w.write("order_rows/0", np.arange(24))
            w.write("order_grades/0", np.full(24, 0.5))
        reader = StoreReader(path)
        assert reader.num_objects == 24
        assert np.array_equal(
            np.asarray(reader.memmap("order_rows/0")), np.arange(24)
        )

    def test_abort_is_noop_after_clean_close(self, tmp_path):
        w = StoreWriter(tmp_path / "other.store", 4, 1)
        w.write("grades", np.zeros((4, 1)))
        w.write("order_rows/0", np.arange(4))
        w.write("order_grades/0", np.zeros(4))
        w.close()
        w.close()  # idempotent
        w.abort()  # no-op: the finalised file stays
        assert (tmp_path / "other.store").exists()

    def test_failed_resave_leaves_the_existing_store(self, tmp_path, db):
        path = _store(tmp_path, db)
        with pytest.raises(RuntimeError, match="boom"):
            with StoreWriter(path, 16, 1) as w:
                w.write("grades", np.zeros((16, 1)))
                raise RuntimeError("boom")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.store"]
        assert open_store(path).top_k(MIN, 5) == db.top_k(MIN, 5)

    def test_resave_under_a_live_reader_keeps_the_old_store(self, tmp_path):
        """A child process queries a store, under a residency budget far
        smaller than the data, while the parent re-saves that path
        three times with other contents.  The writer renames a
        complete file over the path, and the reader maps the file it
        opened, so every segment -- including the ones it first touches
        after the re-saves -- comes from it: the child keeps reading the old
        store: same answers, clean exit -- no SIGBUS from a truncated
        mapping, no mix of old and new pages."""
        import os
        import subprocess
        import sys

        import repro

        path = tmp_path / "live.store"
        stop = tmp_path / "stop"
        old = synthetic.uniform(4000, 3, seed=1)
        save_store(old, path)
        with subprocess.Popen(
            [sys.executable, "-c", _LIVE_READER, str(path), str(stop)],
            stdout=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parent.parent),
            },
        ) as child:
            try:
                assert child.stdout is not None
                ready = child.stdout.readline()
                for seed in (2, 3, 4):
                    save_store(
                        synthetic.uniform(4000 + seed, 3, seed=seed), path
                    )
                stop.touch()
                last = child.stdout.readline()
                assert child.wait(timeout=60) == 0
            finally:
                child.kill()
        col = old.to_columnar()
        ta = ThresholdAlgorithm().run_on(col, AVERAGE, 5)
        assert ready.strip() == repr(col.top_k(AVERAGE, 5))
        assert last.strip() == repr(
            (col.top_k(AVERAGE, 5), [(i.obj, i.grade) for i in ta.items])
        )


#: the live reader of test_resave_under_a_live_reader_keeps_the_old_store:
#: re-reads the grades (mapped before the re-saves) until the stop file
#: exists, exiting 3 if the answer changes, then runs TA, whose first
#: touch of lists 1 and 2 maps them after the re-saves
_LIVE_READER = """
import os, sys
from repro.aggregation import AVERAGE
from repro.core import ThresholdAlgorithm
from repro.store import open_store

db = open_store(sys.argv[1], cache_bytes=16 * 1024)
first = db.top_k(AVERAGE, 5)
print(repr(first), flush=True)
while not os.path.exists(sys.argv[2]):
    if db.top_k(AVERAGE, 5) != first:
        sys.exit(3)
ta = ThresholdAlgorithm().run_on(db, AVERAGE, 5)
print(repr((db.top_k(AVERAGE, 5), [(i.obj, i.grade) for i in ta.items])))
"""


# ---------------------------------------------------------------------------
# the memory-mapped internals and the residency valve
# ---------------------------------------------------------------------------
def _resident_bytes(path) -> int:
    """Resident bytes of this process's mappings of the file ``path``
    (``/proc/self/smaps``: exact per mapping, unlike the process-wide
    counters the valve reads)."""
    target = str(Path(path).resolve())
    total, counting = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split()
            if "-" in fields[0] and not fields[0].endswith(":"):
                counting = len(fields) >= 6 and fields[5] == target
            elif counting and fields[0] == "Rss:":
                total += int(fields[1]) * 1024
    return total


needs_smaps = pytest.mark.skipif(
    not Path("/proc/self/smaps").exists(),
    reason="needs /proc/self/smaps to measure per-mapping residency",
)


def _uniform_store(tmp_path, n, m, shards=None, seed=3):
    """An in-RAM columnar database of uniform grades and the store it
    was saved to."""
    col = ColumnarDatabase.from_array(
        np.random.default_rng(seed).random((n, m)), validate=False
    )
    path = tmp_path / f"u{n}x{m}.store"
    save_store(col if shards is None else col.to_sharded(shards), path)
    return col, path


#: the child of test_child_query_keeps_vmhwm_within_budget: opens a store
#: under a residency budget, runs TA twice, and reports its VmHWM growth
#: over the post-open baseline with the answers
_BUDGETED_READER = """
import json, sys
from repro.aggregation import AVERAGE
from repro.core import ThresholdAlgorithm
from repro.store import open_store

def hwm():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

db = open_store(sys.argv[1], cache_bytes=int(sys.argv[2]))
baseline = hwm()
runs = []
for _ in range(2):
    result = ThresholdAlgorithm().run_on(db, AVERAGE, 10)
    runs.append([[[i.obj, i.grade] for i in result.items],
                 result.stats.sorted_accesses, result.stats.random_accesses])
print(json.dumps({"delta": hwm() - baseline, "runs": runs,
                  "valve": db.page_cache.snapshot()}))
"""


class TestPaging:
    def test_paged_vector_matches_plain_array(self, tmp_path, db):
        """The order vectors are demand-paged: plain read-only ndarrays
        viewing the file's one map, with the same values, scalars and
        slices as in RAM, and no write can reach the file."""
        col = db.to_columnar()
        loaded = open_store(_store(tmp_path, db))
        for i in range(col.num_lists):
            for stored, ref in (
                (loaded._order_rows[i], col._order_rows[i]),
                (loaded._order_grades[i], col._order_grades[i]),
            ):
                assert type(stored) is np.ndarray
                assert stored.dtype == ref.dtype
                assert not stored.flags.writeable
                assert np.shares_memory(
                    stored, np.frombuffer(loaded.reader.mapping, np.uint8)
                )
                assert np.array_equal(stored, ref)
                for idx in (0, 7, 8, 63, -1):
                    assert stored[idx] == ref[idx]
                for sl in (slice(5, 21), slice(None, None, 3), slice(17, 17)):
                    assert np.array_equal(stored[sl], ref[sl])
                with pytest.raises(ValueError, match="read-only"):
                    stored[0] = stored[1]

    def test_paged_matrix_matches_plain_array(self, tmp_path, db):
        """The demand-paged grade matrix, the shard windows and the run
        triples of a sharded store are read-only views of the map,
        equal to the in-RAM sharded twin's arrays."""
        sharded = db.to_sharded(4)
        loaded = open_store(_store(tmp_path, db, shards=4))
        matrix = loaded._matrix
        assert type(matrix) is np.ndarray and not matrix.flags.writeable
        assert np.array_equal(matrix, sharded._matrix)
        assert np.array_equal(matrix[13], sharded._matrix[13])
        rows = np.array([3, 99, 8, 8, 0, 42])
        assert np.array_equal(matrix[rows, 1], sharded._matrix[rows, 1])
        for window, ref in zip(
            loaded._shard_matrices, sharded._shard_matrices
        ):
            assert np.shares_memory(window, matrix)
            assert np.array_equal(window, ref)
        for stored_runs, ref_runs in zip(loaded._runs, sharded._runs):
            for stored, ref in zip(stored_runs, ref_runs):
                for a, b in zip(stored, ref):
                    assert not a.flags.writeable
                    assert np.array_equal(a, b)
        for i in range(db.num_lists):
            for a, b in zip(
                loaded._merged_cache[i], sharded._merged_order(i)
            ):
                assert np.array_equal(a, b)

    def test_gathers_and_column_subsets_match_fancy_indexing(
        self, tmp_path, monkeypatch
    ):
        """``_gather`` -- TA's speculative row gather and
        ``random_access_batch`` -- sliced into pieces of the valve's
        row floor with the valve before each, over projections
        (strided views and column copies): unsorted and repeated rows
        equal ndarray fancy indexing on the same view of the plain
        matrix.  A matrix this small is not sliced at the real fault
        granularity; scaled down to it, the same budget-derived rule
        slices it."""
        col, path = _uniform_store(tmp_path, 100, 4)
        assert open_store(path, cache_bytes=1).page_cache.slice_rows is None
        monkeypatch.setattr(valve_module, "_FAULT_BYTES", 16)
        loaded = open_store(path, cache_bytes=1)
        assert loaded.page_cache.slice_rows == 8
        ref = col._matrix
        rows = np.random.default_rng(5).integers(0, 100, 60)
        for lists in ([0, 1, 2, 3], [1, 0], [2], [0, 2], [3, 1], [2, 0, 3]):
            view = loaded._project(lists)
            want = ref[:, lists]
            assert view._valve is loaded.page_cache
            assert np.array_equal(view._matrix, want)
            before = loaded.page_cache.snapshot()
            assert np.array_equal(view._gather(rows), want[rows])
            for j in range(len(lists)):
                assert np.array_equal(view._gather(rows, j), want[rows, j])
            assert view._gather(rows[:0]).shape == (0, len(lists))
            after = loaded.page_cache.snapshot()
            # the valve ran before the slices, and released the map
            assert after["misses"] > before["misses"]

    def test_boolean_mask_gathers_like_ndarray(self, tmp_path):
        """The store's matrix and shard windows are real ndarrays, so
        a boolean index is numpy's own mask selection -- never row
        numbers 0/1 -- exactly as on the in-RAM backends."""
        col, path = _uniform_store(tmp_path, 64, 2, shards=3)
        loaded = open_store(path)
        ref = col._matrix
        mask = ref[:, 0] > 0.5
        assert np.array_equal(loaded._matrix[mask], ref[mask])
        assert np.array_equal(loaded._matrix[mask, 1], ref[mask, 1])
        lo, hi = (int(b) for b in loaded.shard_bounds[1:3])
        window = loaded._shard_matrices[1]
        assert np.array_equal(window[mask[lo:hi]], ref[lo:hi][mask[lo:hi]])
        with pytest.raises(IndexError):
            loaded._matrix[mask[:-1]]

    def test_concurrent_readers_share_one_cache(self, tmp_path, monkeypatch):
        """Threads hammering one store whose valve releases the map at
        every check -- sliced gathers, order slices and explicit
        releases interleaving -- read exact data and leave the counters
        consistent.  This is the shape QueryService's engine workers
        run in (one valve, up to max_active threads, daemon --store
        mode)."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(valve_module, "_FAULT_BYTES", 16)
        col, path = _uniform_store(tmp_path, 512, 2)
        loaded = open_store(path, cache_bytes=1)
        valve = loaded.page_cache
        assert valve.slice_rows == 8
        ref_mat = col._matrix
        ref_vec = col._order_grades[0]

        def hammer(seed: int) -> int:
            local = np.random.default_rng(seed)
            for _ in range(150):
                rows = local.integers(0, 512, size=32)
                assert np.array_equal(loaded._gather(rows), ref_mat[rows])
                assert np.array_equal(
                    loaded._gather(rows, 1), ref_mat[rows, 1]
                )
                lo = int(local.integers(0, 512 - 9))
                assert np.array_equal(
                    loaded._order_grades[0][lo : lo + 9], ref_vec[lo : lo + 9]
                )
                if seed % 3 == 0:
                    valve.release_mappings()
            return 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert sum(pool.map(hammer, range(8), timeout=120)) == 8
        finally:
            sys.setswitchinterval(switch)
        snap = valve.snapshot()
        # 8 threads x 150 iterations x 2 gathers x 4 slices, one check each
        assert snap["hits"] + snap["misses"] == 8 * 150 * 2 * 4
        assert snap["misses"] > 0
        valve.release_mappings()
        assert valve.snapshot()["resident_bytes"] == 0

    @needs_smaps
    def test_cache_snapshot_and_clear(self, tmp_path, db):
        """The snapshot reports the budget, the map, and the valve's
        counters; ``release_mappings`` clears the map's residency."""
        path = _store(tmp_path, db)
        loaded = open_store(path, cache_bytes=12345)
        snap = loaded.page_cache.snapshot()
        assert snap["budget_bytes"] == 12345
        assert snap["mapped_bytes"] == path.stat().st_size
        assert snap["hits"] == snap["misses"] == snap["evictions"] == 0
        ThresholdAlgorithm().run_on(loaded, AVERAGE, 5)
        snap = loaded.page_cache.snapshot()
        assert snap["hits"] + snap["misses"] > 0
        assert _resident_bytes(path) > 0
        assert loaded.page_cache.release_mappings() >= 0
        assert _resident_bytes(path) == 0
        assert loaded.page_cache.snapshot()["resident_bytes"] == 0
        # reads still work after a release (pages fault back in)
        assert loaded.top_k(MIN, 3) == db.to_columnar().top_k(MIN, 3)

    @needs_smaps
    def test_mapped_bytes_grow_lazily(self, tmp_path):
        """Opening maps the file and makes nothing resident; one sorted
        probe makes resident only the pages around it -- far less than
        the file."""
        _col, path = _uniform_store(tmp_path, 400_000, 2)
        loaded = open_store(path)
        assert _resident_bytes(path) == 0
        loaded.sorted_entry(0, 0)
        resident = _resident_bytes(path)
        assert 0 < resident < path.stat().st_size / 2

    @needs_smaps
    def test_release_mappings_is_transparent_to_reads(self, tmp_path):
        """A release never invalidates what was handed out: the
        ``SortedBatch`` rows/grades views taken before it read the same
        values after it (a read-only shared file mapping re-faults from
        the page cache), and later reads are exact."""
        from repro.middleware.access import AccessSession

        col, path = _uniform_store(tmp_path, 5000, 3)
        loaded = open_store(path)
        batch = AccessSession(loaded).sorted_access_batch(1, 700)
        rows, grades = batch.rows, batch.grades
        assert np.shares_memory(grades, loaded._order_grades[1])
        copies = rows.copy(), grades.copy()
        assert _resident_bytes(path) > 0
        assert loaded.page_cache.release_mappings() > 0
        assert _resident_bytes(path) == 0
        assert np.array_equal(rows, copies[0])
        assert np.array_equal(grades, copies[1])
        assert np.array_equal(grades, col._order_grades[1][:700])
        assert np.array_equal(loaded._matrix[4000:5000], col._matrix[4000:])
        # idempotent when nothing is resident
        loaded.page_cache.release_mappings()
        assert loaded.page_cache.release_mappings() == 0

    @needs_smaps
    def test_mapped_budget_auto_releases(self, tmp_path):
        """After every check the store's own resident pages are within
        budget: growth past it releases the map."""
        col, path = _uniform_store(tmp_path, 200_000, 2)
        budget = 256 * 1024
        loaded = open_store(path, cache_bytes=budget)
        valve = loaded.page_cache
        rng = np.random.default_rng(7)
        for _ in range(40):
            rows = rng.integers(0, 200_000, 64)
            assert np.array_equal(loaded._matrix[rows], col._matrix[rows])
            valve.check()
            assert _resident_bytes(path) <= budget
        assert valve.snapshot()["misses"] > 0
        assert valve.snapshot()["evictions"] > 0
        with pytest.raises(ValueError, match="budget_bytes"):
            open_store(path, cache_bytes=0)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM"
    )
    def test_child_query_keeps_vmhwm_within_budget(self, tmp_path):
        """A fresh process querying a store ~24x its residency budget
        keeps its peak RSS growth (VmHWM, which counts resident file
        pages) within the budget plus a stated slack, and answers
        bit-identically to the in-RAM run.  The slack is what the valve
        cannot see between two checks: one gather slice (8 rows, each
        fault mapping up to a 2 MiB folio: 16 MiB), the folios under
        the four sorted-order cursors (8 MiB), and the engine's own
        working set and lazy imports (8 MiB)."""
        import json
        import os
        import subprocess
        import sys

        import repro

        col, path = _uniform_store(tmp_path, 2_000_000, 2)
        budget = 4 * 2**20
        slack = 32 * 2**20
        want = ThresholdAlgorithm().run_on(col, AVERAGE, 10)
        del col
        assert path.stat().st_size >= 20 * budget
        child = subprocess.run(
            [sys.executable, "-c", _BUDGETED_READER, str(path), str(budget)],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parent.parent),
            },
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        expected = [
            [[i.obj, i.grade] for i in want.items],
            want.stats.sorted_accesses,
            want.stats.random_accesses,
        ]
        assert report["runs"] == [expected, expected]
        assert report["valve"]["misses"] > 0
        assert report["delta"] <= budget + slack, report

    def test_cache_metrics_ride_the_obs_plane(self, tmp_path, db):
        from repro.obs import Observability

        obs = Observability()
        path = _store(tmp_path, db)
        loaded = open_store(path, cache_bytes=1, obs=obs)
        ThresholdAlgorithm().run_on(loaded, AVERAGE, 5)
        rendered = obs.registry.render_prometheus()
        assert "repro_store_valve_hits_total" in rendered
        assert "repro_store_valve_misses_total" in rendered
        assert "repro_store_released_pages_total" in rendered
        assert "repro_store_resident_bytes" in rendered

    def test_projection_views_arithmetic_list_sets(self, tmp_path):
        """``_project`` over a store views the map whenever the list set
        is an arithmetic progression -- any one or two lists, ranges,
        reversed sets -- and copies only other sets; every projection
        answers like an in-RAM database built from those columns."""
        col, path = _uniform_store(tmp_path, 3000, 4)
        loaded = open_store(path)
        for lists, shared in (
            ((1,), True), ((0, 2), True), ((3, 1), True), ((2, 2), False),
            ((1, 2, 3), True), ((3, 2, 1, 0), True), ((2, 0, 3), False),
        ):
            view = loaded._project(lists)
            assert np.shares_memory(view._matrix, loaded._matrix) is shared
            assert view._matrix.flags.writeable is not shared
            plain = ColumnarDatabase.from_array(col._matrix[:, list(lists)])
            assert np.array_equal(view._matrix, plain._matrix)
            for algo in (ThresholdAlgorithm(), CombinedAlgorithm()):
                for aggregation in (MIN, AVERAGE):
                    want = algo.run_on(plain, aggregation, 5)
                    got = algo.run_on(view, aggregation, 5)
                    assert [(i.obj, i.grade) for i in got.items] == [
                        (i.obj, i.grade) for i in want.items
                    ]
                    assert got.stats == want.stats


class TestValidateOption:
    def test_validate_catches_tampered_order_grades(self, tmp_path, db):
        path = _store(tmp_path, db)
        reader = StoreReader(path)
        spec = reader.segments["order_grades/1"]
        raw = bytearray(path.read_bytes())
        # swap two adjacent non-tied order grades: header stays valid,
        # content no longer matches the matrix ordering
        a = struct.unpack_from("<d", raw, spec.offset)[0]
        b = struct.unpack_from("<d", raw, spec.offset + 8)[0]
        assert a != b
        struct.pack_into("<d", raw, spec.offset, b)
        struct.pack_into("<d", raw, spec.offset + 8, a)
        path.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError):
            open_store(path, validate=True)

    def test_open_without_validate_defers_to_caller(self, tmp_path, db):
        path = _store(tmp_path, db)
        loaded = open_store(path)  # no O(N) validation by default
        assert loaded.num_objects == db.num_objects
