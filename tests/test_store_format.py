"""The v3 on-disk store: format discipline, versioning, paging.

The no-trust rules of the wire codec apply to files: every structural
check -- magic, version, header shape, segment bounds -- runs *before*
any ``np.memmap`` is created, so corrupt or truncated files raise the
:class:`~repro.middleware.errors.WireFormatError` family instead of
being mapped and read as garbage.  Versioning is explicit: legacy
v1/v2 ``.npz`` files load through the same :func:`open_store` entry
point (fully in RAM, same results), and a future-version file is
refused with a message saying so.

The paging layer is tested for exact equivalence: every read served
through the :class:`~repro.store.LRUPageCache` must be bit-identical
to the plain in-RAM array, across page boundaries, strided slices,
fancy-gather patterns, and cache evictions.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.aggregation import AVERAGE, MIN, SUM
from repro.core import ThresholdAlgorithm
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
    LRUPageCache,
    PagedMatrix,
    PagedVector,
    StoreBackedDatabase,
    StoreBackedShardedDatabase,
    StoreReader,
    StoreSegment,
    StoreWriter,
    open_store,
    save_store,
)

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
        """A child process queries a store, paging through a cache far
        smaller than the data, while the parent re-saves that path
        three times with other contents.  The writer renames a
        complete file over the path, and the reader maps every segment
        -- including the ones it first touches after the re-saves --
        from the file it opened, so the child keeps reading the old
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

db = open_store(sys.argv[1], cache_bytes=16 * 1024, page_rows=128)
first = db.top_k(AVERAGE, 5)
print(repr(first), flush=True)
while not os.path.exists(sys.argv[2]):
    if db.top_k(AVERAGE, 5) != first:
        sys.exit(3)
ta = ThresholdAlgorithm().run_on(db, AVERAGE, 5)
print(repr((db.top_k(AVERAGE, 5), [(i.obj, i.grade) for i in ta.items])))
"""


# ---------------------------------------------------------------------------
# the page cache and the paged proxies
# ---------------------------------------------------------------------------
class TestPaging:
    def _segment(self, tmp_path, values, page_rows=8, capacity=None):
        n = len(values)
        db = Database.from_array(
            np.column_stack([values, values[::-1]]).clip(0.0, 1.0)
        )
        path = tmp_path / "page.store"
        save_store(db, path)
        reader = StoreReader(path)
        cache = LRUPageCache(
            capacity if capacity is not None else 1 << 20, page_rows
        )
        return reader, cache, n

    def test_paged_vector_matches_plain_array(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.random(100)
        reader, cache, n = self._segment(tmp_path, values)
        vec = PagedVector(
            StoreSegment(reader, "order_grades/0", cache), cache
        )
        ref = reader.memmap("order_grades/0")[:]
        assert len(vec) == n
        assert np.array_equal(np.asarray(vec), ref)
        # scalars, slices across page boundaries, strides, gathers
        for idx in (0, 7, 8, 9, 63, 99, -1, -100):
            assert vec[idx] == ref[idx]
        for sl in (
            slice(0, 8), slice(5, 21), slice(0, 100), slice(90, 200),
            slice(None, None, 3), slice(10, 90, 7), slice(17, 17),
        ):
            assert np.array_equal(vec[sl], ref[sl])
        assert vec.tolist() == ref.tolist()
        with pytest.raises(IndexError):
            vec[100]
        with pytest.raises(IndexError):
            vec[-101]

    def test_paged_matrix_matches_plain_array(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.random(100)
        reader, cache, n = self._segment(tmp_path, values)
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        ref = np.asarray(reader.memmap("grades"))
        assert mat.shape == ref.shape
        assert np.array_equal(np.asarray(mat), ref)
        assert np.array_equal(mat[13], ref[13])
        assert mat[13, 1] == ref[13, 1]
        rows = np.array([3, 99, 8, 8, 0, 42])
        assert np.array_equal(mat[rows, 1], ref[rows, 1])
        assert np.array_equal(mat[rows], ref[rows])
        assert np.array_equal(mat[20:40], ref[20:40])
        win = mat.window(30, 70)
        assert np.array_equal(win[np.array([0, 5, 39]), 0],
                              ref[30:70][np.array([0, 5, 39]), 0])
        assert win[39, 1] == ref[69, 1]

    def test_gathers_and_column_subsets_match_fancy_indexing(self, tmp_path):
        """Row gathers (unsorted, repeated, spanning many pages, boolean
        masks) through windows and column subsets equal ndarray fancy
        indexing on the same view of the plain array."""
        rng = np.random.default_rng(5)
        values = rng.random(100)
        reader, cache, n = self._segment(tmp_path, values, page_rows=8)
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        ref = np.asarray(reader.memmap("grades"))
        rows = rng.integers(0, 40, 60)  # unsorted, with repeats
        views = [
            (mat, ref),
            (mat.window(30, 70), ref[30:70]),
            (mat.columns([1, 0]), ref[:, [1, 0]]),
            (mat.columns([1]), ref[:, [1]]),
            (mat.window(30, 70).columns([1, 1, 0]), ref[30:70][:, [1, 1, 0]]),
            (mat.columns([1, 0]).columns([1]), ref[:, [0]]),
        ]
        for view, want in views:
            assert view.shape == want.shape
            assert np.array_equal(np.asarray(view), want)
            assert np.array_equal(view[rows], want[rows])
            mask = rng.random(len(want)) > 0.5
            assert np.array_equal(view[mask], want[mask])
            for j in range(want.shape[1]):
                assert np.array_equal(view[rows, j], want[rows, j])
                assert np.array_equal(view[mask, j], want[mask, j])
                assert view[17, j] == want[17, j]
            assert np.array_equal(view[17], want[17])
            assert np.array_equal(view[5:21], want[5:21])
            assert view[np.array([], dtype=np.intp)].shape == (0, want.shape[1])
        with pytest.raises(IndexError):
            mat.columns([2])
        with pytest.raises(IndexError):
            mat.columns([1])[0, 1]

    def test_boolean_mask_gathers_like_ndarray(self, tmp_path):
        """``matrix[mask]`` is mask selection on the in-RAM backends;
        the paged matrix must match, not reinterpret True/False as
        rows 1/0."""
        rng = np.random.default_rng(8)
        values = rng.random(64)
        reader, cache, n = self._segment(tmp_path, values)
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        ref = np.asarray(reader.memmap("grades"))
        mask = ref[:, 0] > 0.5
        assert np.array_equal(mat[mask], ref[mask])
        assert np.array_equal(mat[mask, 1], ref[mask, 1])
        empty = np.zeros(n, dtype=bool)
        assert mat[empty].shape == (0, 2)
        win = mat.window(10, 30)
        wmask = mask[10:30]
        assert np.array_equal(win[wmask], ref[10:30][wmask])
        with pytest.raises(IndexError, match="boolean mask"):
            mat[mask[:-1]]

    def test_concurrent_readers_share_one_cache(self, tmp_path):
        """Threads hammering one small shared cache -- evictions and
        mapped-budget releases firing constantly -- must read exact
        data and leave the byte accounting consistent.  This is the
        shape QueryService's engine workers run in (one cache, up to
        max_active threads, daemon --store mode)."""
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(9)
        values = rng.random(512)
        page_rows = 8
        capacity = 4 * page_rows * 2 * 8  # ~4 grade pages
        reader, cache, n = self._segment(
            tmp_path, values, page_rows=page_rows, capacity=capacity
        )
        cache.mapped_budget_bytes = 1  # release after every miss
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        vec = PagedVector(
            StoreSegment(reader, "order_grades/0", cache), cache
        )
        ref_mat = np.asarray(reader.memmap("grades"))
        ref_vec = np.asarray(reader.memmap("order_grades/0"))

        def hammer(seed: int) -> int:
            local = np.random.default_rng(seed)
            for _ in range(150):
                rows = local.integers(0, n, size=16)
                assert np.array_equal(mat[rows], ref_mat[rows])
                assert np.array_equal(mat[rows, 1], ref_mat[rows, 1])
                lo = int(local.integers(0, n - 9))
                assert np.array_equal(
                    vec[lo : lo + 9], ref_vec[lo : lo + 9]
                )
                if seed % 3 == 0:
                    cache.release_mappings()
            return 1

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sum(pool.map(hammer, range(8))) == 8
        snap = cache.snapshot()
        assert snap["cached_bytes"] == sum(
            block.nbytes for block in cache._pages.values()
        )
        assert snap["cached_bytes"] <= capacity
        cache.release_mappings()
        assert cache.snapshot()["mapped_bytes"] == 0

    def test_lru_eviction_keeps_results_exact_and_bounded(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.random(256)
        page_rows = 8
        # room for ~4 pages of the (n, 2) float64 grades segment
        reader, cache, n = self._segment(
            tmp_path, values, page_rows=page_rows,
            capacity=4 * page_rows * 2 * 8,
        )
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        ref = np.asarray(reader.memmap("grades"))
        order = rng.permutation(n)
        for row in order:
            assert mat[int(row), 0] == ref[int(row), 0]
        for row in order[::-1]:
            assert np.array_equal(mat[int(row)], ref[int(row)])
        snap = cache.snapshot()
        assert snap["evictions"] > 0
        assert snap["cached_bytes"] <= 4 * page_rows * 2 * 8
        assert snap["hits"] + snap["misses"] > 0

    def test_cache_snapshot_and_clear(self, tmp_path):
        values = np.linspace(0.0, 1.0, 64)
        reader, cache, _ = self._segment(tmp_path, values)
        vec = PagedVector(
            StoreSegment(reader, "order_grades/0", cache), cache
        )
        np.asarray(vec)
        snap = cache.snapshot()
        assert snap["pages"] > 0 and snap["cached_bytes"] > 0
        cache.clear()
        snap = cache.snapshot()
        assert snap["pages"] == 0 and snap["cached_bytes"] == 0
        # reads still work after a clear (pages fault back in)
        assert vec[5] == np.linspace(0.0, 1.0, 64)[
            np.argsort(-np.linspace(0.0, 1.0, 64), kind="stable")[5]
        ]

    def test_mapped_bytes_grow_lazily(self, tmp_path, db):
        path = _store(tmp_path, db, shards=4)
        loaded = open_store(path)
        assert loaded.page_cache.snapshot()["mapped_bytes"] == 0
        loaded.sorted_entry(0, 0)  # touch one list
        mapped = loaded.page_cache.snapshot()["mapped_bytes"]
        assert mapped > 0
        # untouched segments stay unmapped: one sorted probe maps far
        # less than the whole file
        assert mapped < path.stat().st_size / 2

    def test_release_mappings_is_transparent_to_reads(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.random(128)
        reader, cache, n = self._segment(tmp_path, values)
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        ref = np.asarray(reader.memmap("grades"))
        assert np.array_equal(mat[10:20], ref[10:20])
        assert cache.snapshot()["mapped_bytes"] > 0
        released = cache.release_mappings()
        assert released > 0
        assert cache.snapshot()["mapped_bytes"] == 0
        # cached pages survive the release; uncached reads re-map
        snap_before = cache.snapshot()
        assert np.array_equal(mat[10:20], ref[10:20])
        assert cache.snapshot()["hits"] > snap_before["hits"]
        assert np.array_equal(mat[100:128], ref[100:128])
        assert cache.snapshot()["mapped_bytes"] > 0
        # idempotent when nothing is mapped
        cache.release_mappings()
        assert cache.release_mappings() == 0

    def test_mapped_budget_auto_releases(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.random(512)
        n = len(values)
        db = Database.from_array(
            np.column_stack([values, values[::-1]]).clip(0.0, 1.0)
        )
        path = tmp_path / "budget.store"
        save_store(db, path)
        reader = StoreReader(path)
        # every miss is charged at least the fault granularity, so a
        # 1-byte budget forces a release after each fresh page
        cache = LRUPageCache(1 << 20, 8, mapped_budget_bytes=1)
        mat = PagedMatrix(StoreSegment(reader, "grades", cache), cache)
        ref = np.asarray(reader.memmap("grades"))
        for row in range(0, n, 8):
            assert np.array_equal(mat[row], ref[row])
            assert cache.snapshot()["mapped_bytes"] == 0
        assert np.array_equal(np.asarray(mat), ref)
        with pytest.raises(ValueError, match="mapped_budget_bytes"):
            LRUPageCache(1 << 20, 8, mapped_budget_bytes=0)

    def test_cache_metrics_ride_the_obs_plane(self, tmp_path, db):
        from repro.obs import Observability

        obs = Observability()
        path = _store(tmp_path, db)
        loaded = open_store(path, obs=obs)
        loaded.top_k(MIN, 3)
        rendered = obs.registry.render_prometheus()
        assert "repro_store_page_misses_total" in rendered
        assert "repro_store_cached_bytes" in rendered


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
