"""Unit tests for the batched access plane: identical accounting to the
scalar access methods, on both backends, including the awkward edges
(batches overrunning the list end, wild guesses raised mid-batch,
capability refusals, trace-recording fallback).

The ``TestCombinedAlgorithmPhaseAccounting`` class covers the charging
edges of CA's chunked random-access phase: ``h`` boundaries relative to
the halting round, interleaving with the no-wild-guess certificate, and
the footnote-15 escape clause (empty candidate pool), the per-access
trace stream, capability refusals, and the one charging call per chunk
(``AccessSession.charge_schedule``)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.aggregation.standard import AVERAGE, MIN
from repro.core.ca import CombinedAlgorithm
from repro.middleware.access import AccessSession, ListCapabilities
from repro.middleware.database import ColumnarDatabase, Database
from repro.middleware.errors import (
    CapabilityError,
    UnknownObjectError,
    WildGuessError,
)
from repro.middleware.trace import SORTED, BatchAccessEvent

N, M = 30, 3


@pytest.fixture(params=["scalar", "columnar"])
def db(request):
    grades = np.random.default_rng(11).random((N, M))
    if request.param == "scalar":
        return Database.from_array(grades)
    return ColumnarDatabase.from_array(grades)


def test_sorted_batch_matches_scalar_sequence(db):
    batched = AccessSession(db)
    scalar = AccessSession(db)
    batch = batched.sorted_access_batch(0, 7)
    reference = [scalar.sorted_access(0) for _ in range(7)]
    assert batch.objects == [obj for obj, _ in reference]
    assert batch.grades.tolist() == [g for _, g in reference]
    assert batched.stats() == scalar.stats()
    assert batched.position(0) == 7


def test_sorted_batch_overrunning_list_end_charges_only_entries(db):
    session = AccessSession(db)
    batch = session.sorted_access_batch(1, N + 50)
    assert len(batch) == N
    assert session.sorted_accesses == N
    assert session.exhausted(1)
    # exhaustion stays free of charge
    empty = session.sorted_access_batch(1, 5)
    assert len(empty) == 0 and not empty
    assert session.sorted_accesses == N


def test_sorted_batch_zero_and_negative(db):
    session = AccessSession(db)
    assert len(session.sorted_access_batch(0, 0)) == 0
    with pytest.raises(ValueError):
        session.sorted_access_batch(0, -1)


def test_random_batch_charges_per_object_including_repeats(db):
    session = AccessSession(db)
    batch = session.sorted_access_batch(0, 3)
    objs = batch.objects + batch.objects  # repeats are charged again
    grades = session.random_access_batch(1, objs)
    assert session.random_accesses == 6
    assert grades.tolist() == [db.grade(o, 1) for o in objs]


def test_random_batch_rows_shortcut_matches_objects(db):
    session = AccessSession(db)
    batch = session.sorted_access_batch(2, 5)
    by_objects = session.random_access_batch(0, batch.objects)
    by_rows = session.random_access_batch(0, None, rows=batch.rows) \
        if batch.rows is not None else by_objects
    assert by_rows.tolist() == by_objects.tolist()


def test_wild_guess_mid_batch_charges_exact_prefix(db):
    """A wild guess at position q charges exactly q accesses -- the same
    as a scalar loop that died on the q-th+1 call."""
    session = AccessSession(db, forbid_wild_guesses=True)
    seen = session.sorted_access_batch(0, 4).objects
    unseen = next(o for o in db.objects if o not in seen)
    request = [seen[0], seen[1], unseen, seen[2]]
    with pytest.raises(WildGuessError):
        session.random_access_batch(1, request)
    assert session.random_accesses == 2

    scalar = AccessSession(db, forbid_wild_guesses=True)
    scalar.sorted_access_batch(0, 4)
    with pytest.raises(WildGuessError):
        for obj in request:
            scalar.random_access(1, obj)
    assert scalar.random_accesses == session.random_accesses


def test_wild_guess_after_sorted_batch_is_not_raised(db):
    session = AccessSession(db, forbid_wild_guesses=True)
    batch = session.sorted_access_batch(0, 5)
    grades = session.random_access_batch(1, batch.objects, rows=batch.rows)
    assert len(grades) == 5


def test_unknown_object_mid_batch_charges_prefix(db):
    session = AccessSession(db)
    seen = session.sorted_access_batch(0, 2).objects
    with pytest.raises(UnknownObjectError):
        session.random_access_batch(0, [seen[0], "no-such-object", seen[1]])
    assert session.random_accesses == 1


def test_capability_checks_apply_to_batches(db):
    session = AccessSession(
        db, capabilities=ListCapabilities(random_allowed=False)
    )
    with pytest.raises(CapabilityError):
        session.random_access_batch(0, [0])
    session = AccessSession(
        db, capabilities=ListCapabilities(sorted_allowed=False)
    )
    with pytest.raises(CapabilityError):
        session.sorted_access_batch(0, 1)
    assert session.sorted_accesses == 0


def test_sorted_access_round_is_one_lockstep_round(db):
    session = AccessSession(db)
    scalar = AccessSession(db)
    rb = session.sorted_access_round()
    reference = [(i, *scalar.sorted_access(i)) for i in range(M)]
    assert rb.lists == [i for i, *_ in reference]
    assert rb.objects == [obj for _, obj, _ in reference]
    assert rb.grades == [g for *_, g in reference]
    assert session.stats() == scalar.stats()


def test_sorted_access_round_skips_exhausted_lists(db):
    session = AccessSession(db)
    session.sorted_access_batch(0, N)  # exhaust list 0
    rb = session.sorted_access_round()
    assert rb.lists == [1, 2]
    assert len(rb) == 2


def test_trace_recording_composes_with_the_batch_plane(db):
    """Tracing no longer disables the columnar fast path: the scalar
    backend records one event per access, the columnar backend one
    *batch* event per call -- and the summaries agree on the access
    counts either way."""
    session = AccessSession(db, record_trace=True)
    is_columnar = session.columnar_view() is not None
    assert session.supports_batches == is_columnar
    batch = session.sorted_access_batch(0, 4)
    session.random_access_batch(1, batch.objects)
    events = list(session.trace)
    # one event per charged access on the scalar plane; one
    # batch-granularity event per call on the columnar fast path
    assert len(events) == (2 if is_columnar else 8)
    counts = session.trace.counts()
    assert counts["S"] == 4 and counts["R"] == 4
    assert session.stats().sorted_accesses == 4
    assert session.stats().random_accesses == 4


def test_batch_trace_events_carry_the_scalar_stream_content():
    """The columnar batch events carry exactly the objects/grades the
    scalar plane's per-access events would have, in access order."""
    grades = np.random.default_rng(4).random((12, 2))
    scalar = AccessSession(Database.from_array(grades), record_trace=True)
    columnar = AccessSession(
        ColumnarDatabase.from_array(grades), record_trace=True
    )
    sb = scalar.sorted_access_batch(0, 5)
    cb = columnar.sorted_access_batch(0, 5)
    assert sb.objects == cb.objects
    scalar.random_access_batch(1, sb.objects)
    columnar.random_access_batch(1, cb.objects)
    scalar_events = list(scalar.trace)
    [s_batch, r_batch] = list(columnar.trace)
    assert s_batch.kind == "S" and r_batch.kind == "R"
    assert s_batch.first_position == 0 and r_batch.first_position == -1
    assert list(s_batch.objects) == [e.obj for e in scalar_events[:5]]
    assert list(s_batch.grades) == [e.grade for e in scalar_events[:5]]
    assert list(r_batch.objects) == [e.obj for e in scalar_events[5:]]
    assert list(r_batch.grades) == [e.grade for e in scalar_events[5:]]
    # batches record the post-batch cumulative cost
    assert s_batch.cumulative_cost == scalar_events[4].cumulative_cost
    assert r_batch.cumulative_cost == scalar_events[-1].cumulative_cost
    assert (
        scalar.trace.max_lockstep_skew()
        == columnar.trace.max_lockstep_skew()
    )
    assert (
        scalar.trace.duplicate_random_accesses()
        == columnar.trace.duplicate_random_accesses()
    )


def test_supports_batches_only_on_columnar():
    grades = np.random.default_rng(0).random((10, 2))
    scalar = AccessSession(Database.from_array(grades))
    columnar = AccessSession(ColumnarDatabase.from_array(grades))
    assert not scalar.supports_batches
    assert scalar.columnar_view() is None
    assert columnar.supports_batches
    assert columnar.columnar_view() is not None


class TestCombinedAlgorithmPhaseAccounting:
    """Charging edges of CA's chunked random-access phase."""

    @staticmethod
    def _accounting(result):
        stats = result.stats
        return (
            stats.sorted_accesses,
            stats.random_accesses,
            stats.sorted_by_list,
            stats.random_by_list,
            stats.depth,
            result.rounds,
            result.extras["random_phases"],
            result.extras["escape_clauses"],
        )

    @staticmethod
    def _both(algo, grades, aggregation, k, **kwargs):
        scalar = algo.run_on(Database.from_array(grades), aggregation, k,
                             **kwargs)
        columnar = algo.run_on(
            ColumnarDatabase.from_array(grades), aggregation, k, **kwargs
        )
        return scalar, columnar

    @pytest.mark.parametrize("h", [1, 2, 3, 7, 10**9])
    def test_phase_charges_identical_at_every_h_boundary(self, h):
        """The phase fires exactly at global rounds divisible by h --
        including h=1 (a phase per round, mid-chunk store mutations
        every replay step) and huge h (no phase before halting, CA
        degenerates to NRA)."""
        grades = np.random.default_rng(23).random((80, 3))
        scalar, columnar = self._both(
            CombinedAlgorithm(h=h), grades, AVERAGE, 4
        )
        assert self._accounting(scalar) == self._accounting(columnar)
        if h == 10**9:
            assert columnar.random_accesses == 0

    def test_phase_halting_on_the_phase_round_charges_once(self):
        """When the halting check succeeds on a phase round, the phase's
        random accesses and the round's sorted accesses are both charged
        exactly once (the phase pre-charges the sorted prefix; the
        commit must not double-charge it)."""
        grades = np.random.default_rng(5).random((60, 3))
        for h in (1, 2, 5):
            scalar, columnar = self._both(
                CombinedAlgorithm(h=h), grades, MIN, 2
            )
            assert self._accounting(scalar) == self._accounting(columnar)
            n_sorted = columnar.stats.sorted_accesses
            assert n_sorted <= 3 * columnar.rounds  # never over-charged

    def test_phase_random_accesses_pass_wild_guess_certification(self):
        """Phase targets have, by construction, been seen under sorted
        access; the chunked engine must realise (charge) the speculated
        sorted prefix *before* the phase's random accesses, or the
        certificate would see a wild guess."""
        grades = np.random.default_rng(11).random((70, 3))
        scalar, columnar = self._both(
            CombinedAlgorithm(h=2),
            grades,
            AVERAGE,
            3,
            forbid_wild_guesses=True,
        )
        assert columnar.random_accesses > 0
        assert self._accounting(scalar) == self._accounting(columnar)

    def test_escape_clause_on_empty_candidate_pool_charges_nothing(self):
        """Footnote 15: when every viable object is already fully known
        (identical columns => each round completes its object), the
        phase charges no random accesses on either backend."""
        column = np.linspace(1.0, 0.1, 10)
        grades = np.stack([column, column], axis=1)
        scalar, columnar = self._both(
            CombinedAlgorithm(h=1), grades, MIN, 2
        )
        assert self._accounting(scalar) == self._accounting(columnar)
        assert columnar.random_accesses == 0
        assert columnar.extras["escape_clauses"] >= 1
        assert columnar.extras["random_phases"] == 0

    def test_phase_on_near_exhausted_lists(self):
        """h boundaries interacting with list exhaustion: a large
        halt-check interval skips the final checks, so the run exhausts
        every list, fires phases on thinned-out rounds along the way,
        and halts on the zero-progress phantom round -- where no phase
        may fire (the scalar loop's ``progressed`` guard)."""
        grades = np.random.default_rng(7).random((12, 3))
        # halt_check_interval=13 skips every in-chunk check: the first
        # check runs on the zero-progress round after full exhaustion
        scalar, columnar = self._both(
            CombinedAlgorithm(h=2, halt_check_interval=13),
            grades,
            AVERAGE,
            12,
        )
        assert self._accounting(scalar) == self._accounting(columnar)
        assert scalar.halt_reason == columnar.halt_reason
        assert columnar.depth == 12  # every list fully consumed
        assert columnar.rounds == 13  # 12 progressing + 1 phantom round

    @staticmethod
    def _per_access(events):
        """Expand a trace to per-access ``(kind, list, object, grade,
        position)`` tuples, random accesses with their cumulative cost.
        Each run of sorted accesses between random ones is put in
        lockstep order (position, then list): a per-list batch event
        stands for the rounds it spans, and the scalar loop's runs are
        already in that order."""
        out, run = [], []
        for e in events:
            if isinstance(e, BatchAccessEvent):
                accesses = [
                    (e.kind, e.list_index, obj, grade,
                     e.first_position + p if e.kind == SORTED else -1)
                    for p, (obj, grade) in enumerate(zip(e.objects, e.grades))
                ]
            else:
                accesses = [(e.kind, e.list_index, e.obj, e.grade, e.position)]
            for access in accesses:
                if access[0] == SORTED:
                    run.append(access)
                else:
                    out.extend(sorted(run, key=lambda a: (a[4], a[1])))
                    run = []
                    out.append(access + (e.cumulative_cost,))
        out.extend(sorted(run, key=lambda a: (a[4], a[1])))
        return out

    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_columnar_trace_expands_to_the_scalar_stream(self, h):
        """The columnar run's batch events -- per-list sorted runs, then
        each phase's random accesses, per phase -- carry exactly the
        scalar loop's per-access stream, in order."""
        grades = np.random.default_rng(23).random((80, 3))
        traces = []
        for db in (
            Database.from_array(grades),
            ColumnarDatabase.from_array(grades),
        ):
            session = AccessSession(db, record_trace=True)
            result = CombinedAlgorithm(h=h).run(session, AVERAGE, 4)
            traces.append(session.trace)
        assert result.random_accesses > 0
        scalar_stream = [
            (e.kind, e.list_index, e.obj, e.grade, e.position)
            + ((e.cumulative_cost,) if e.kind != SORTED else ())
            for e in traces[0]
        ]
        assert all(isinstance(e, BatchAccessEvent) for e in traces[1])
        assert self._per_access(traces[1]) == scalar_stream

    @pytest.mark.parametrize(
        "refused",
        [
            ListCapabilities(random_allowed=False),
            ListCapabilities(sorted_allowed=False),
        ],
        ids=["random", "sorted"],
    )
    def test_refused_list_raises_with_the_scalar_partial_stats(self, refused):
        """Past ``run``'s up-front capability check, a list refusing an
        access mode raises the same ``CapabilityError`` at the same
        access, with the same charged prefix, on both backends."""
        grades = np.random.default_rng(11).random((70, 3))
        caps = [ListCapabilities(), refused, ListCapabilities()]
        outcomes = []
        for db in (
            Database.from_array(grades),
            ColumnarDatabase.from_array(grades),
        ):
            session = AccessSession(db, capabilities=caps)
            with pytest.raises(CapabilityError) as info:
                CombinedAlgorithm(h=2)._run(session, AVERAGE, 3)
            outcomes.append((info.value.args, session.stats()))
        assert outcomes[0] == outcomes[1]
        stats = outcomes[0][1]
        if not refused.random_allowed:
            # the failing phase charged its sorted prefix and the
            # random access on list 0 first
            assert stats.sorted_accesses > 3 and stats.random_accesses > 0
        else:
            # the first round's access on list 0, then the refusal
            assert stats.sorted_by_list == {0: 1}

    def test_one_charging_call_per_chunk(self):
        """The columnar engine charges each chunk -- its phases included
        -- in one ``charge_schedule`` call, and makes no per-phase
        session call."""
        calls = Counter()

        class CountingSession(AccessSession):
            pass

        for name in (
            "sorted_access",
            "random_access",
            "sorted_access_batch",
            "sorted_access_round",
            "random_access_batch",
            "random_access_across",
            "charge_schedule",
        ):

            def counted(self, *args, _name=name, **kwargs):
                calls[_name] += 1
                return getattr(AccessSession, _name)(self, *args, **kwargs)

            setattr(CountingSession, name, counted)

        grades = np.random.default_rng(8).random((3000, 3))
        db = ColumnarDatabase.from_array(grades)
        result = CombinedAlgorithm(h=2).run(CountingSession(db), AVERAGE, 5)
        assert result == CombinedAlgorithm(h=2).run_on(db, AVERAGE, 5)
        assert result.extras["random_phases"] > 0
        # chunks run 32, 64, 128, ... rounds (at most 2048)
        chunks, covered = 0, 0
        while covered < result.rounds:
            covered += min(32 << chunks, 2048)
            chunks += 1
        assert chunks > 1
        assert calls == Counter({"charge_schedule": chunks})
