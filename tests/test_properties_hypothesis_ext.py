"""Property-based tests for the extension features (batched TA, NRA-theta,
sorted order, serialization) and cross-feature invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation import AVERAGE, MAX, MIN, SUM
from repro.analysis import is_correct_topk, is_theta_approximation
from repro.core import (
    NoRandomAccessAlgorithm,
    QuickCombine,
    ThresholdAlgorithm,
    sorted_topk_without_grades,
)
from repro.middleware import Database
from repro.store import open_store, save_store

AGGREGATIONS = [MIN, MAX, SUM, AVERAGE]

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def databases(draw, max_n=20, max_m=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    levels = draw(st.integers(min_value=1, max_value=8))
    cells = draw(
        st.lists(
            st.integers(min_value=0, max_value=levels),
            min_size=n * m,
            max_size=n * m,
        )
    )
    grades = np.array(cells, dtype=float).reshape(n, m) / levels
    return Database.from_array(grades)


@st.composite
def db_query(draw):
    db = draw(databases())
    k = draw(st.integers(min_value=1, max_value=db.num_objects))
    t = draw(st.sampled_from(AGGREGATIONS))
    return db, t, k


class TestBatchedTAProperties:
    @SETTINGS
    @given(db_query(), st.lists(st.integers(1, 4), min_size=3, max_size=3))
    def test_batched_always_correct(self, query, batches):
        db, t, k = query
        algo = ThresholdAlgorithm(batch_sizes=tuple(batches[: db.num_lists]))
        res = algo.run_on(db, t, k)
        assert is_correct_topk(db, t, k, res.objects)

    @SETTINGS
    @given(db_query())
    def test_unit_batches_equal_lockstep(self, query):
        db, t, k = query
        plain = ThresholdAlgorithm().run_on(db, t, k)
        unit = ThresholdAlgorithm(
            batch_sizes=(1,) * db.num_lists
        ).run_on(db, t, k)
        assert plain.sorted_accesses == unit.sorted_accesses
        assert plain.random_accesses == unit.random_accesses


class TestNraThetaProperties:
    @SETTINGS
    @given(db_query(), st.floats(min_value=1.01, max_value=3.0))
    def test_theta_guarantee(self, query, theta):
        db, t, k = query
        res = NoRandomAccessAlgorithm(theta=theta).run_on(db, t, k)
        assert res.random_accesses == 0
        assert is_theta_approximation(db, t, k, res.objects, theta)

    @SETTINGS
    @given(db_query(), st.floats(min_value=1.01, max_value=3.0))
    def test_theta_no_costlier_than_exact(self, query, theta):
        db, t, k = query
        exact = NoRandomAccessAlgorithm().run_on(db, t, k)
        approx = NoRandomAccessAlgorithm(theta=theta).run_on(db, t, k)
        assert approx.sorted_accesses <= exact.sorted_accesses


class TestSortedOrderProperties:
    @SETTINGS
    @given(db_query())
    def test_ranking_is_grade_sorted_topk(self, query):
        db, t, k = query
        res = sorted_topk_without_grades(db, t, k)
        grades = [t.aggregate(db.grade_vector(obj)) for obj in res.ranking]
        assert grades == sorted(grades, reverse=True)
        assert is_correct_topk(db, t, k, res.ranking)


class TestQuickCombineProperties:
    @SETTINGS
    @given(
        db_query(),
        st.integers(min_value=1, max_value=6),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    def test_any_window_fairness_correct(self, query, window, fairness):
        db, t, k = query
        algo = QuickCombine(window=window, fairness=fairness)
        res = algo.run_on(db, t, k)
        assert is_correct_topk(db, t, k, res.objects)


class TestSerializationProperties:
    @SETTINGS
    @given(databases())
    def test_store_round_trip_identical(self, db):
        """Adversarial tie placement survives persistence."""
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.store"
            save_store(db, path)
            loaded = open_store(path)
            assert loaded.num_objects == db.num_objects
            assert loaded.num_lists == db.num_lists
            for i in range(db.num_lists):
                for p in range(db.num_objects):
                    assert loaded.sorted_entry(i, p) == db.sorted_entry(i, p)
