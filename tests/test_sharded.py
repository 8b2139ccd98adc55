"""Tests for the sharded backend: merge-cursor semantics, shard
routing, shard-aware construction/generation, and persistence.

Bit-for-bit algorithm equivalence against the scalar and columnar
backends lives in ``test_columnar_differential.py``; this file covers
the shard machinery itself.
"""

import numpy as np
import pytest

from repro import datagen
from repro.aggregation import AVERAGE, MIN
from repro.core import ThresholdAlgorithm
from repro.middleware import (
    Database,
    DatabaseError,
    ListMergeCursor,
    ShardedDatabase,
    UnknownObjectError,
    shard_bounds_for,
)
from repro.store import open_store, save_store


def _random_db(n=97, m=3, seed=0, ties=False):
    rng = np.random.default_rng(seed)
    if ties:
        arr = (rng.integers(0, 7, size=(n, m)) / 6.0).astype(float)
    else:
        arr = rng.random((n, m))
    return Database.from_array(arr)


class TestShardBounds:
    def test_balanced_partition(self):
        bounds = shard_bounds_for(10, 4)
        assert bounds.tolist() == [0, 2, 5, 7, 10]
        assert (np.diff(bounds) >= 2).all()

    def test_more_shards_than_rows(self):
        bounds = shard_bounds_for(2, 5)
        assert bounds[0] == 0 and bounds[-1] == 2
        assert (np.diff(bounds) >= 0).all()

    def test_rejects_zero_shards(self):
        with pytest.raises(DatabaseError):
            shard_bounds_for(10, 0)


class TestMergeCursor:
    def test_streaming_equals_drain(self):
        db = _random_db(ties=True, seed=3)
        for num_shards in (1, 2, 5):
            stream = db.to_sharded(num_shards)
            drained = db.to_sharded(num_shards)
            for i in range(db.num_lists):
                cur = stream.merge_cursor(i)
                rows, grades = [], []
                while not cur.exhausted:
                    row, grade = cur.next_entry()
                    rows.append(row)
                    grades.append(grade)
                d_rows, d_grades = drained.merge_cursor(i).drain()
                assert rows == d_rows.tolist()
                assert grades == d_grades.tolist()

    def test_take_then_drain_is_a_partition(self):
        db = _random_db(ties=True, seed=5)
        sharded = db.to_sharded(3)
        reference = db.to_columnar()
        cur = sharded.merge_cursor(0)
        head_rows, head_grades = cur.take(10)
        tail_rows, tail_grades = cur.drain()
        assert cur.exhausted
        all_rows = np.concatenate([head_rows, tail_rows])
        assert np.array_equal(all_rows, reference._order_rows[0])
        all_grades = np.concatenate([head_grades, tail_grades])
        assert np.array_equal(all_grades, reference._order_grades[0])

    def test_take_past_exhaustion_returns_short(self):
        db = _random_db(n=7, m=1, seed=1)
        cur = db.to_sharded(2).merge_cursor(0)
        rows, grades = cur.take(100)
        assert len(rows) == 7 and len(grades) == 7
        assert cur.exhausted
        more_rows, _ = cur.take(5)
        assert len(more_rows) == 0
        with pytest.raises(IndexError):
            cur.next_entry()

    def test_iter_sorted_streams_ids(self):
        db = _random_db(n=20, seed=9)
        sharded = db.to_sharded(4)
        expected = [
            db.sorted_entry(1, p) for p in range(db.num_objects)
        ]
        assert list(sharded.iter_sorted(1)) == expected

    def test_cursor_direct_construction(self):
        # two runs with an equal grade across runs: the tie key decides
        runs = [
            (
                np.array([0, 1], dtype=np.intp),
                np.array([0.9, 0.5]),
                np.array([0, 1], dtype=np.int64),
            ),
            (
                np.array([2, 3], dtype=np.intp),
                np.array([0.9, 0.1]),
                np.array([2, 3], dtype=np.int64),
            ),
        ]
        cur = ListMergeCursor(runs)
        assert [row for row, _ in cur] == [0, 2, 1, 3]


class TestShardRouting:
    def test_shard_of_row_covers_bounds(self):
        db = _random_db(n=23).to_sharded(4)
        bounds = db.shard_bounds
        for row in range(23):
            s = db.shard_of_row(row)
            assert bounds[s] <= row < bounds[s + 1]

    def test_shard_of_uses_interning(self):
        arr = np.random.default_rng(2).random((12, 2))
        ids = [f"obj-{i}" for i in range(12)]
        db = Database.from_array(arr, object_ids=ids)
        sharded = db.to_sharded(3)
        for i, obj in enumerate(ids):
            assert sharded.shard_of(obj) == sharded.shard_of_row(i)
        with pytest.raises(UnknownObjectError):
            sharded.shard_of("missing")

    def test_random_access_routed_grade_matches(self):
        db = _random_db(n=31, m=4, seed=7)
        sharded = db.to_sharded(5)
        for obj in db.objects:
            for i in range(4):
                assert sharded.grade(obj, i) == db.grade(obj, i)


class TestShardedConstruction:
    def test_from_shards_concatenates_blocks(self):
        rng = np.random.default_rng(0)
        parts = [rng.random((4, 2)), rng.random((7, 2)), rng.random((2, 2))]
        db = ShardedDatabase.from_shards(parts)
        assert db.num_objects == 13 and db.num_shards == 3
        assert db.shard_bounds.tolist() == [0, 4, 11, 13]
        full = np.concatenate(parts)
        for row in range(13):
            assert db.grade_vector(row) == tuple(full[row].tolist())

    def test_from_shards_rejects_mixed_arity(self):
        with pytest.raises(DatabaseError):
            ShardedDatabase.from_shards(
                [np.zeros((2, 2)), np.zeros((2, 3))]
            )

    def test_from_rows_matches_scalar_tie_semantics(self):
        rows = {"a": (0.5, 0.2), "b": (0.5, 0.9), "c": (0.1, 0.9)}
        scalar = Database.from_rows(rows)
        sharded = ShardedDatabase.from_rows(rows, num_shards=2)
        for i in range(2):
            for p in range(3):
                assert sharded.sorted_entry(i, p) == scalar.sorted_entry(i, p)

    def test_from_columns_preserves_tie_placement(self):
        inst = datagen.example_6_3(12)
        columns = [
            [
                inst.database.sorted_entry(i, p)
                for p in range(inst.database.num_objects)
            ]
            for i in range(inst.database.num_lists)
        ]
        sharded = ShardedDatabase.from_columns(columns, num_shards=3)
        for i in range(sharded.num_lists):
            for p in range(sharded.num_objects):
                assert (
                    sharded.sorted_entry(i, p)
                    == inst.database.sorted_entry(i, p)
                )

    def test_resharding_a_sharded_database(self):
        db = _random_db(ties=True, seed=13)
        once = db.to_sharded(2)
        twice = once.to_sharded(5)
        assert twice.num_shards == 5
        reference = db.to_columnar()
        for i in range(db.num_lists):
            assert np.array_equal(
                np.asarray(twice._order_rows[i]), reference._order_rows[i]
            )

    def test_validate_catches_wrong_shard_rows(self):
        db = _random_db(n=10, m=1).to_sharded(2)
        rows, grades, ties = db._runs[0][0]
        # claim a row the shard does not own
        bad = (np.array([9], dtype=np.intp), grades[:1], ties[:1])
        db._runs[0][0] = bad
        with pytest.raises(DatabaseError):
            db._validate()


class TestShardedGeneration:
    def test_sharded_uniform_shapes(self):
        db = datagen.sharded_uniform(50, 3, num_shards=4, seed=1)
        assert isinstance(db, ShardedDatabase)
        assert db.num_objects == 50 and db.num_shards == 4

    def test_shards_reproducible_in_isolation(self):
        """Worker s can regenerate its block from (seed, s) alone."""
        db = datagen.sharded_uniform(40, 2, num_shards=4, seed=9)
        streams = np.random.default_rng(9).spawn(4)
        bounds = shard_bounds_for(40, 4)
        block2 = streams[2].random((int(bounds[3] - bounds[2]), 2))
        lo = int(bounds[2])
        for r in range(block2.shape[0]):
            assert db.grade_vector(lo + r) == tuple(block2[r].tolist())

    def test_sharded_blocks_custom_sampler(self):
        db = datagen.sharded_blocks(
            lambda rng, n_s, m: rng.random((n_s, m)) ** 2.0,
            30,
            2,
            num_shards=3,
            seed=4,
        )
        assert db.num_objects == 30
        db._validate()


class TestShardedPersistence:
    def test_round_trip_preserves_layout_and_order(self, tmp_path):
        db = _random_db(ties=True, seed=21).to_sharded(3)
        path = tmp_path / "sharded.store"
        save_store(db, path)
        loaded = open_store(path)
        assert isinstance(loaded, ShardedDatabase)
        assert loaded.num_shards == 3
        assert np.array_equal(loaded.shard_bounds, db.shard_bounds)
        for i in range(db.num_lists):
            for p in range(db.num_objects):
                assert loaded.sorted_entry(i, p) == db.sorted_entry(i, p)

    def test_load_reshards_on_request(self, tmp_path):
        db = _random_db(seed=23)
        path = tmp_path / "plain.store"
        save_store(db, path)
        loaded = open_store(path).to_sharded(4)
        assert isinstance(loaded, ShardedDatabase)
        assert loaded.num_shards == 4
        result_a = ThresholdAlgorithm().run_on(db, AVERAGE, 5)
        result_b = ThresholdAlgorithm().run_on(loaded, AVERAGE, 5)
        assert [it.obj for it in result_a.items] == [
            it.obj for it in result_b.items
        ]

    def test_reload_skips_sort_and_merge(self, tmp_path, monkeypatch):
        """The persisted order arrays must be used as-is: neither an
        argsort nor a merge re-sort may run on load or on sorted
        access (the merged-order cache comes back pre-filled)."""
        db = _random_db(seed=25).to_sharded(2)
        path = tmp_path / "s.store"
        save_store(db, path)

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("re-sort during sharded load")

        monkeypatch.setattr(np, "argsort", forbidden)
        monkeypatch.setattr(np, "lexsort", forbidden)
        loaded = open_store(path)
        assert loaded.sorted_entry(0, 0) == db.sorted_entry(0, 0)
        assert all(entry is not None for entry in loaded._merged_cache)
        # the engines themselves may lexsort chunk assemblies; only the
        # load and order-materialisation paths must be sort-free
        monkeypatch.undo()
        result = ThresholdAlgorithm().run_on(loaded, MIN, 3)
        assert result.items


class TestShardedSources:
    def test_assemble_database_sharded(self):
        from repro.middleware import GradedSource, assemble_database

        sources = [
            GradedSource("s0", [("a", 0.9), ("b", 0.5), ("c", 0.5)]),
            GradedSource("s1", [("b", 1.0), ("c", 0.8), ("a", 0.2)]),
        ]
        plain, caps = assemble_database(sources)
        sharded, caps2 = assemble_database(sources, num_shards=2)
        assert isinstance(sharded, ShardedDatabase)
        assert caps == caps2
        for i in range(2):
            for p in range(3):
                assert sharded.sorted_entry(i, p) == plain.sorted_entry(i, p)
