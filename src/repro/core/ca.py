"""CA -- the Combined Algorithm (Section 8.2).

CA is "NRA plus carefully chosen random accesses": it runs NRA's lockstep
sorted access and bound bookkeeping, but every ``h = floor(cR/cS)`` rounds
it spends one random-access *phase* -- resolving **all** missing fields of
the single viable object with the largest upper bound ``B`` (ties
arbitrary).  If every viable object is already fully known, the phase is
skipped (the escape clause of footnote 15).  Halting is NRA's rule.

The ``B``-greedy choice is the algorithm's whole point: Section 8.4 shows
the *intermittent* algorithm (same accesses as TA, merely delayed) can be
``3(h-2)`` times worse on the Figure 5 database, and Theorem 8.9/8.10 show
CA's optimality ratio (``4m + k``; ``5m`` for ``min``) is independent of
``cR/cS`` when the aggregation function is strictly monotone in each
argument (or ``min``) and the database has distinct grades.  By design:

* ``h`` very large  ->  CA degenerates to NRA (no random access fires);
* ``h = 1``         ->  CA resembles TA but resolves only the single most
  promising object per round instead of every object seen.

Like NRA, CA returns the top-``k`` objects with bound information; exact
grades are reported when CA happened to resolve the object.

One bound engine runs both NRA and CA: :func:`run_bound_engine`,
parametrised by the phase ``period`` and NRA's ``theta``.  With no
period it is NRA (Section 8.1); CA passes ``h`` and ``theta = 1``.  The
engine has a scalar reference loop (also the Remark 8.7 naive-
bookkeeping oracle), a chunked engine for columnar sessions and one
result assembly.

Execution backends: on a columnar session
(:attr:`~repro.middleware.access.AccessSession.supports_batches`) the
engine runs *speculatively in chunks*, bit-for-bit equivalent to the
scalar reference loop (differential-tested: same top-k, same halting
round and reason, same access accounting).  Chunks come from the
lockstep driver :class:`~repro.core.chunks.LockstepChunks`, which
Stream-Combine shares; each one goes speculate -> replay -> charge:

speculate
    read the next chunk of lockstep rounds through the uncharged
    ``columnar_view``; one ``aggregate_batch`` each yields every entry's
    ``W`` (Proposition 8.1), its cached ``B`` under the exact mid-round
    bottoms (Proposition 8.2), and every round's threshold
    ``t(bottoms)``.
replay
    ingest the rounds in scalar order against an
    :class:`~repro.core.bounds.ArrayCandidateStore` (fields committed
    with one vectorised scatter).  With a period, at every global round
    divisible by ``h`` the phase runs *on the real store*: the
    ``B``-greedy target, read from the store's candidate pool
    (:meth:`~repro.core.bounds.ArrayCandidateStore.best_random_access_target`),
    is the one the scalar loop's lazy-heap scan
    (:meth:`~repro.core.bounds.CandidateStore.best_random_access_target`)
    picks -- tie order included -- because the target choice, not just
    the halting round, decides which random accesses the paper's
    algorithm pays for (the Theorem 8.9 cost ratio counts exactly
    these).  The phase is speculated like the sorted entries: the
    target's missing grades are read from the uncharged view and the
    phase joins the chunk's schedule.  The resolution then replays the
    scalar per-field ``record`` sequence
    (:meth:`~repro.core.bounds.ArrayCandidateStore.resolve_row_fields`),
    and later sorted re-discoveries of the resolved object are
    suppressed exactly where the scalar ``record`` is a no-op.
charge
    halting (NRA's rule, Theorem 8.4, applied as in Section 8.2) is
    located by the replay, and one
    :meth:`~repro.middleware.access.AccessSession.charge_schedule` call
    per chunk charges the consumed sorted prefix with the phases'
    random accesses spliced in at their rounds -- the scalar loop's
    charging order, so each target's sorted appearance is realised
    before its random accesses (the no-wild-guess certificate of
    Theorem 6.1) and a failing check raises with the scalar loop's
    partial accounting.

The phase target scan and the halting check's viability scan read the
same candidate pool: upper bounds never enter a heap; each row joins
the pool once, with its first entry's cached ``B``.  Three
decision-neutral gates keep the sequential part small (sound because
``M_k`` never decreases while every ``B`` is non-increasing): while
``t(bottoms) > theta * M_k`` with unseen objects remaining no halting
check can succeed, so none runs; entries whose ``W`` sits below the
chunk-start ``M_k`` floor are not replayed; and each failed halting
check yields a *viability witness* -- a seen object outside every
possible ``T_k`` (``W < M_k``) still viable (``B > theta * M_k``) --
whose standing proves the full top-k/viability scan would not halt,
letting it be skipped until the witness falls (or a phase resolves
it).  A witness with no recorded ``W`` counts as ``W < M_k``: every
entry of its row had ``W`` below its chunk's floor, which is at most
``M_k``.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.base import AggregationFunction
from ..middleware.access import AccessSession
from ..middleware.errors import ListLostError
from .base import QueryError, TopKAlgorithm
from .bounds import CandidateStore
from .chunks import ChunkWitness, LockstepChunks
from .result import HaltReason, RankedItem, TopKResult

__all__ = ["CombinedAlgorithm"]


class CombinedAlgorithm(TopKAlgorithm):
    """CA: NRA's bookkeeping + one B-greedy random-access phase every
    ``h`` rounds."""

    name = "CA"

    def __init__(
        self,
        h: int | None = None,
        naive_bookkeeping: bool = False,
        halt_check_interval: int = 1,
    ):
        """``h`` overrides the period; by default it is taken from the
        session's cost model as ``floor(cR/cS)`` (requires ``cR >= cS``,
        as Section 8.2 assumes)."""
        if h is not None and h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        if halt_check_interval < 1:
            raise ValueError(
                f"halt_check_interval must be >= 1, got {halt_check_interval}"
            )
        self.h = h
        self.naive_bookkeeping = naive_bookkeeping
        self.halt_check_interval = halt_check_interval

    def _period(self, session: AccessSession) -> int:
        if self.h is not None:
            return self.h
        if session.cost_model.ratio < 1.0:
            raise QueryError(
                "CA assumes cR >= cS (h = floor(cR/cS) >= 1); got "
                f"cR/cS = {session.cost_model.ratio:g}.  Use TA when random "
                "accesses are cheap."
            )
        return session.cost_model.h

    def _run(
        self, session: AccessSession, aggregation: AggregationFunction, k: int
    ) -> TopKResult:
        return run_bound_engine(
            session,
            aggregation,
            k,
            name=self.name,
            naive_bookkeeping=self.naive_bookkeeping,
            halt_check_interval=self.halt_check_interval,
            period=self._period(session),
        )


def run_bound_engine(
    session: AccessSession,
    aggregation: AggregationFunction,
    k: int,
    *,
    name: str,
    naive_bookkeeping: bool,
    halt_check_interval: int,
    period: int | None = None,
    theta: float = 1.0,
) -> TopKResult:
    """Run NRA's bookkeeping and halting rule with a random-access phase
    every ``period`` rounds (none when ``period`` is ``None``) and the
    halting cutoff ``theta * M_k``; ``name`` labels the result."""
    # the chunked engine needs the W-heap bookkeeping (for
    # current_mk), so the Remark 8.7 naive oracle always runs the
    # scalar loop
    if session.supports_batches and not naive_bookkeeping:
        return _run_chunked(
            session, aggregation, k, name, halt_check_interval, period, theta
        )
    return _run_scalar(
        session,
        aggregation,
        k,
        name,
        naive_bookkeeping,
        halt_check_interval,
        period,
        theta,
    )


def _run_scalar(
    session: AccessSession,
    aggregation: AggregationFunction,
    k: int,
    name: str,
    naive_bookkeeping: bool,
    interval: int,
    period: int | None,
    theta: float,
) -> TopKResult:
    """The scalar reference loop: lockstep sorted access, a phase after
    every ``period``-th round that progressed, and the halting check
    every ``interval`` rounds."""
    m = session.num_lists
    store = CandidateStore(aggregation, m, k, naive=naive_bookkeeping)
    probe = getattr(session, "probe", None)
    rounds = 0
    random_phases = 0
    escape_clauses = 0
    halt_reason = None
    topk: list = []

    while halt_reason is None:
        if session.budget_exceeded:
            topk, _ = store.current_topk()
            halt_reason = HaltReason.DEADLINE
            break
        rounds += 1
        progressed = False
        for i in range(m):
            entry = session.sorted_access(i)
            if entry is None:
                continue
            progressed = True
            obj, grade = entry
            store.update_bottom(i, grade)
            store.record(obj, i, grade)

        if period is not None and progressed and rounds % period == 0:
            # random-access phase: fully resolve the most promising
            # viable object that still has missing fields
            _, m_k = store.current_topk()
            target = store.best_random_access_target(m_k)
            if target is None:
                escape_clauses += 1
            else:
                random_phases += 1
                lost = session.lost_lists
                missing = [
                    i
                    for i in range(m)
                    if i not in store.fields[target] and i not in lost
                ]
                # one overlapped cross-list fetch on remote sessions,
                # the plain per-list loop locally -- identical charging
                # either way
                try:
                    fetched = session.random_access_across(target, missing)
                except ListLostError:
                    # the list died inside the phase: its bound
                    # contribution stays at the (sound) bottom
                    fetched = []
                    missing = []
                for i, grade in zip(missing, fetched):
                    store.record(target, i, grade)

        if probe is not None:
            probe.on_round(rounds, tau=store.threshold)
        check_now = rounds % interval == 0 or not progressed
        if check_now and store.seen_count >= k:
            topk, m_k = store.current_topk()
            cutoff = theta * m_k
            unseen_remain = store.seen_count < session.num_objects
            if not (unseen_remain and store.threshold > cutoff):
                if store.find_viable_outside(topk, cutoff) is None:
                    halt_reason = HaltReason.NO_VIABLE
        if halt_reason is None and not progressed:
            # exhausted everything: every bound is exact, so the
            # current top-k is final
            topk, _ = store.current_topk()
            halt_reason = HaltReason.EXHAUSTED

    return _finish(
        name, session, store, k, rounds, halt_reason, topk,
        period, random_phases, escape_clauses,
    )


def _run_chunked(
    session: AccessSession,
    aggregation: AggregationFunction,
    k: int,
    name: str,
    interval: int,
    period: int | None,
    theta: float,
) -> TopKResult:
    """The speculative chunked engine (see the module docstring).

    Candidates are row indices into the driver's
    :class:`~repro.core.bounds.ArrayCandidateStore`.  A phase executes
    against the live store state (synced to its round), reads the
    target's missing grades from the uncharged view and appends
    ``(round, target, missing lists)`` to the chunk's phase schedule,
    which the commit charges in one call, interleaved with the sorted
    prefix exactly as the scalar loop's accounting (wild-guess
    certification included); resolved rows join ``resolved`` so their
    later sorted re-discoveries are skipped (scalar ``record`` no-ops);
    and the witness is dropped if a phase resolves it.
    """
    chunks = LockstepChunks(session, aggregation, k)
    db = chunks.db
    store = chunks.store
    n = db.num_objects
    field_matrix = store.field_matrix
    resolved: set[int] = set()  # rows fully resolved by a phase
    w_map = store.w
    note_w = store.note_w
    check_every_round = interval == 1
    h = period or 0
    probe = getattr(session, "probe", None)
    rounds = 0
    random_phases = 0
    escape_clauses = 0
    halt_reason = None
    topk: list = []
    witness = None

    for rep in chunks:
        c_eff = rep.c_eff
        tau_list = rep.tau_list
        seen_cum = rep.seen_cum
        seen_base = rep.seen_base
        # (round, target row, missing lists) of this chunk's phases,
        # charged at commit
        phases: list[tuple[int, int, list[int]]] = []
        # ---- the W floor (sound: M_k never decreases) ----
        mk = store.current_mk()
        starts, rows, ws = rep.select(rep.w_arr >= mk)
        witness = rep.carry(witness)
        # the chunk round of the next phase (global round divisible by
        # h); -1 never matches, so without a period no round pays more
        # than one comparison for the phase
        next_phase = h - 1 - rounds % h if h else -1
        # ---- sequential replay: kept entries, phases, checks ----
        r_halt = None
        for r in range(c_eff):
            if starts[r] < starts[r + 1]:
                if resolved:
                    for j in range(starts[r], starts[r + 1]):
                        # a sorted re-discovery of a random-access-
                        # resolved field: scalar record() is a no-op
                        if rows[j] not in resolved:
                            note_w(rows[j], ws[j])
                else:
                    for j in range(starts[r], starts[r + 1]):
                        note_w(rows[j], ws[j])
                mk = store.current_mk()  # only W notes move M_k
            if r == next_phase:
                next_phase += h
                # random-access phase on the live store (every round
                # inside a chunk progresses, so the phase always fires)
                rep.sync_to(r)
                target = store.best_random_access_target(mk)
                if target is None:
                    escape_clauses += 1
                else:
                    random_phases += 1
                    missing = np.nonzero(np.isnan(field_matrix[target]))[
                        0
                    ].tolist()
                    # speculated like the sorted entries: the grades
                    # come from the uncharged view, and the commit
                    # charges the phase after the sorted prefix of its
                    # first r + 1 rounds
                    grades_t = db._gather(
                        np.asarray([target], dtype=np.intp)
                    )[0].tolist()
                    fetched = [grades_t[j] for j in missing]
                    phases.append((r + 1, target, missing))
                    store.resolve_row_fields(target, missing, fetched)
                    mk = store.current_mk()
                    resolved.add(target)
                    if witness is not None and witness.row == target:
                        # the witness is now fully known: it may enter
                        # the top-k, so it proves nothing
                        witness = None
            if not (check_every_round or (rounds + r + 1) % interval == 0):
                continue
            seen_r = seen_base + seen_cum[r]
            if seen_r < k:
                continue
            cutoff = theta * mk
            if seen_r < n and tau_list[r] > cutoff:
                continue
            if (
                witness is not None
                and w_map.get(witness.row, -np.inf) < mk
                and rep.witness_bound(witness, r) > cutoff
            ):
                # outside every possible T_k and still viable
                continue
            rep.sync_to(r)
            topk, _ = store.current_topk()
            found = store.find_viable_outside(topk, cutoff)
            if found is None:
                halt_reason = HaltReason.NO_VIABLE
                r_halt = r
                break
            witness = ChunkWitness(found[0], rep.chunk, after_round=r)
        consumed = r_halt + 1 if r_halt is not None else c_eff
        rep.commit(session, consumed, phases)
        rounds += consumed
        if probe is not None and consumed:
            taus = tuple(float(t) for t in tau_list[:consumed])
            probe.on_round(rounds, tau=taus[-1], taus=taus)
        if halt_reason is not None:
            break
    else:
        topk, m_k = store.current_topk()
        if chunks.deadline:
            halt_reason = HaltReason.DEADLINE
        else:
            # zero-progress round: no phase fires; full check, then
            # EXHAUSTED
            rounds += 1
            if probe is not None:
                probe.on_round(rounds, tau=store.threshold)
            if store.seen_count_value >= k:
                cutoff = theta * m_k
                if not (
                    store.seen_count_value < n and store.threshold > cutoff
                ):
                    if store.find_viable_outside(topk, cutoff) is None:
                        halt_reason = HaltReason.NO_VIABLE
            if halt_reason is None:
                halt_reason = HaltReason.EXHAUSTED

    return _finish(
        name, session, store, k, rounds, halt_reason, topk,
        period, random_phases, escape_clauses, ids=db._ids,
    )


def _finish(
    name: str,
    session: AccessSession,
    store: CandidateStore,
    k: int,
    rounds: int,
    halt_reason,
    topk: list,
    period: int | None,
    random_phases: int,
    escape_clauses: int,
    ids: list | None = None,
) -> TopKResult:
    """Assemble the result; ``ids`` translates row-keyed candidates
    (the chunked engine's store) back to object ids.  A run with a
    period reports its phase counts in ``extras``."""
    # imported lazily: repro.resilience builds on repro.core
    from ..resilience.degraded import finalize_certificates

    items = [
        RankedItem(
            obj if ids is None else ids[obj],
            store.exact_grade(obj),
            store.w[obj],
            store.b_value(obj),
        )
        for obj in topk
    ]
    items.sort(key=lambda it: (-it.lower_bound, -it.upper_bound))
    extras: dict[str, int] = (
        {}
        if period is None
        else {
            "h": period,
            "random_phases": random_phases,
            "escape_clauses": escape_clauses,
        }
    )
    extras["b_evaluations"] = store.b_evaluations
    result = TopKResult(
        algorithm=name,
        k=k,
        items=items,
        stats=session.stats(),
        rounds=rounds,
        depth=session.depth,
        halt_reason=halt_reason,
        max_buffer_size=store.seen_count,
        extras=extras,
    )
    return finalize_certificates(result, session, store, topk)
