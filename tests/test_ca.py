"""Unit tests for CA (the Combined Algorithm, Section 8.2)."""

import numpy as np
import pytest

from repro import datagen
from repro.aggregation import AVERAGE, MIN, SUM
from repro.analysis import assert_result_correct
from repro.core import (
    CombinedAlgorithm,
    NoRandomAccessAlgorithm,
    ThresholdAlgorithm,
)
from repro.core.base import QueryError
from repro.middleware import AccessSession, CostModel, Database
from repro.services import AsyncAccessSession, services_for_database
from tests.helpers import result_signature


class TestCorrectness:
    @pytest.mark.parametrize("h", [1, 2, 5, 50])
    def test_random_dbs_all_h(self, h):
        for seed in range(3):
            db = datagen.uniform(120, 3, seed=seed)
            res = CombinedAlgorithm(h=h).run_on(db, AVERAGE, 4)
            assert_result_correct(db, AVERAGE, res)

    @pytest.mark.parametrize("t", [MIN, AVERAGE, SUM])
    def test_aggregations(self, t):
        db = datagen.permutations(150, 3, seed=2)
        res = CombinedAlgorithm(h=2).run_on(db, t, 5)
        assert_result_correct(db, t, res)

    def test_h_from_cost_model(self, tiny_db):
        cm = CostModel(1.0, 7.0)
        res = CombinedAlgorithm().run_on(tiny_db, AVERAGE, 2, cm)
        assert res.extras["h"] == 7
        assert_result_correct(tiny_db, AVERAGE, res)

    def test_rejects_cr_below_cs_without_explicit_h(self, tiny_db):
        cm = CostModel(2.0, 1.0)
        with pytest.raises(QueryError):
            CombinedAlgorithm().run_on(tiny_db, AVERAGE, 1, cm)

    def test_h_validated(self):
        with pytest.raises(ValueError):
            CombinedAlgorithm(h=0)


class TestRandomAccessDiscipline:
    def test_at_most_one_phase_per_h_rounds(self):
        db = datagen.uniform(300, 3, seed=1)
        h = 4
        res = CombinedAlgorithm(h=h).run_on(db, AVERAGE, 3)
        assert res.extras["random_phases"] <= res.rounds // h
        # each phase resolves at most m-1 missing fields
        assert res.random_accesses <= res.extras["random_phases"] * 2

    def test_huge_h_degenerates_to_nra(self):
        db = datagen.uniform(150, 2, seed=2)
        ca = CombinedAlgorithm(h=10**9).run_on(db, AVERAGE, 3)
        nra = NoRandomAccessAlgorithm().run_on(db, AVERAGE, 3)
        assert ca.random_accesses == 0
        assert ca.sorted_accesses == nra.sorted_accesses
        assert set(ca.objects) == set(nra.objects)

    def test_escape_clause_fires_when_everything_known(self):
        """Footnote 15's scenario: the same objects appear at the top of
        every list, so the first phase finds no object with missing
        fields."""
        db = Database.from_rows(
            {i: ((10 - i) / 10, (10 - i) / 10) for i in range(10)}
        )
        res = CombinedAlgorithm(h=1).run_on(db, MIN, 2)
        assert res.extras["escape_clauses"] >= 1
        assert res.random_accesses == 0
        assert_result_correct(db, MIN, res)

    def test_b_greedy_choice_on_figure_5(self):
        """CA must random-access the winner R first, not the decoys."""
        h = 8
        inst = datagen.figure_5(h)
        cm = CostModel(1.0, float(h))
        res = CombinedAlgorithm().run_on(inst.database, SUM, 1, cm)
        assert res.objects == ["R"]
        assert res.random_accesses == 1  # exactly R's missing L3 field
        assert res.depth == h


class TestCostProfile:
    def test_ca_beats_ta_when_random_expensive(self):
        """The regime CA was designed for: cR >> cS."""
        db = datagen.uniform(300, 3, seed=4)
        cm = CostModel(1.0, 100.0)
        ca = CombinedAlgorithm().run_on(db, AVERAGE, 3, cm)
        ta = ThresholdAlgorithm().run_on(db, AVERAGE, 3, cm)
        assert ca.middleware_cost < ta.middleware_cost

    def test_sorted_and_random_costs_balanced(self):
        """With h = floor(cR/cS), CA's random cost is at most ~its sorted
        cost (the proof of Theorem 8.9 uses exactly this)."""
        db = datagen.uniform(400, 3, seed=5)
        cm = CostModel(1.0, 10.0)
        res = CombinedAlgorithm().run_on(db, AVERAGE, 3, cm)
        sorted_cost = res.sorted_accesses * cm.cs
        random_cost = res.random_accesses * cm.cr
        assert random_cost <= sorted_cost * (1 + 2 / cm.h) + 3 * cm.cr

    def test_never_slower_than_nra_by_much(self):
        # CA halts no later (in rounds) than NRA: extra information can
        # only tighten bounds
        db = datagen.uniform(200, 2, seed=6)
        ca = CombinedAlgorithm(h=3).run_on(db, AVERAGE, 3)
        nra = NoRandomAccessAlgorithm().run_on(db, AVERAGE, 3)
        assert ca.rounds <= nra.rounds


class TestBookkeepingModes:
    def test_lazy_and_naive_agree(self):
        for seed in range(3):
            db = datagen.uniform(100, 3, seed=seed)
            fast = CombinedAlgorithm(h=2).run_on(db, AVERAGE, 3)
            slow = CombinedAlgorithm(h=2, naive_bookkeeping=True).run_on(
                db, AVERAGE, 3
            )
            assert fast.rounds == slow.rounds
            assert fast.random_accesses == slow.random_accesses
            assert set(fast.objects) == set(slow.objects)

    def test_halt_check_interval_validated(self):
        with pytest.raises(ValueError):
            CombinedAlgorithm(halt_check_interval=0)


def _nra_and_unreachable_phase_ca(backend, db, aggregation, k):
    """One run each of ``NoRandomAccessAlgorithm()`` and
    ``CombinedAlgorithm(h=N+1)`` -- a period no phase can reach, since
    only rounds that progressed fire one -- on ``backend``."""
    results = []
    for algorithm in (
        NoRandomAccessAlgorithm(),
        CombinedAlgorithm(h=db.num_objects + 1),
    ):
        if backend == "async":
            with AsyncAccessSession(
                services_for_database(db), batch_size=8, prefetch_pages=0
            ) as session:
                results.append(algorithm.run(session, aggregation, k))
        else:
            source = db.to_columnar() if backend == "columnar" else db
            session = AccessSession(source)
            assert session.supports_batches == (backend == "columnar")
            results.append(algorithm.run(session, aggregation, k))
    return results


@pytest.mark.parametrize(
    "backend",
    [
        "scalar",
        "columnar",
        pytest.param("async", marks=pytest.mark.async_services),
    ],
)
@pytest.mark.parametrize("grades", ["tied", "continuous"])
@pytest.mark.parametrize(
    "aggregation", [AVERAGE, MIN, SUM], ids=lambda agg: agg.name
)
def test_nra_is_ca_with_no_phase(backend, grades, aggregation):
    """NRA and CA run one bound engine; with no phase it is NRA.  Both
    must agree on items (with ``W``/``B`` bounds), rounds, halt reason
    and the sorted/random access counts."""
    for seed in range(2):
        rng = np.random.default_rng(seed)
        if grades == "tied":
            matrix = rng.integers(0, 6, (160, 3)) / 5.0
        else:
            matrix = rng.random((160, 3))
        db = Database.from_array(matrix)
        for k in (1, 3, 10):
            nra, ca = _nra_and_unreachable_phase_ca(
                backend, db, aggregation, k
            )
            assert result_signature(nra) == result_signature(ca)
            assert ca.random_accesses == 0
            assert ca.extras["random_phases"] == 0
            assert nra.extras == {"b_evaluations": ca.extras["b_evaluations"]}
