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

Execution backends: on a columnar session
(:attr:`~repro.middleware.access.AccessSession.supports_batches`) CA runs
a *speculative chunked engine* that is bit-for-bit equivalent to the
scalar reference loop (differential-tested: same top-k, same halting
round and reason, same access accounting).  The design is the
speculate -> replay -> charge scheme NRA uses, with the paper's
per-``h``-rounds random-access phase spliced into the replay:

speculate
    read the next chunk of lockstep rounds through the uncharged
    ``columnar_view``; one ``aggregate_batch`` each yields every entry's
    ``W`` (Proposition 8.1), its cached ``B`` under the exact mid-round
    bottoms (Proposition 8.2), and every round's threshold
    ``t(bottoms)``.
replay
    ingest the rounds in scalar order against an
    :class:`~repro.core.bounds.ArrayCandidateStore`.  At every global
    round divisible by ``h`` the phase runs *on the real store*: the
    ``B``-greedy target is the one the scalar loop's lazy-heap scan
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
    halting (NRA's rule, Theorem 8.4 applied as in Section 8.2) is
    located by the replay, and one
    :meth:`~repro.middleware.access.AccessSession.charge_schedule` call
    per chunk charges the consumed sorted prefix with the phases'
    random accesses spliced in at their rounds -- the scalar loop's
    charging order, so each target's sorted appearance is realised
    before its random accesses (the no-wild-guess certificate of
    Theorem 6.1) and a failing check raises with the scalar loop's
    partial accounting.

Three decision-neutral gates keep the sequential part small, inherited
from NRA (sound because ``M_k`` never decreases while every ``B`` is
non-increasing): the ``t(bottoms) > M_k`` skip, the lazy-heap floor
pruning, and the *viability witness* -- a seen object outside every
possible ``T_k`` (``W < M_k``) still viable (``B > M_k``) whose standing
proves the full top-k/viability scan would not halt, letting it be
skipped until the witness falls (or is itself resolved by a phase).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..aggregation.base import AggregationFunction
from ..middleware.access import AccessSession
from ..middleware.errors import ListLostError
from .base import QueryError, TopKAlgorithm
from .bounds import ArrayCandidateStore, CandidateStore
from .chunks import ChunkReplay, ChunkWitness, assemble_sorted_chunk
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
        # the chunked engine needs the heap bookkeeping, so the
        # Remark 8.7 naive oracle always runs the scalar loop
        if session.supports_batches and not self.naive_bookkeeping:
            return self._run_columnar(session, aggregation, k)
        m = session.num_lists
        h = self._period(session)
        store = CandidateStore(aggregation, m, k, naive=self.naive_bookkeeping)
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

            if progressed and rounds % h == 0:
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
                    # one overlapped cross-list fetch on remote
                    # sessions, the plain per-list loop locally --
                    # identical charging either way
                    try:
                        fetched = session.random_access_across(
                            target, missing
                        )
                    except ListLostError:
                        # the list died inside the phase: its bound
                        # contribution stays at the (sound) bottom
                        fetched = []
                        missing = []
                    for i, grade in zip(missing, fetched):
                        store.record(target, i, grade)

            if probe is not None:
                probe.on_round(rounds, tau=store.threshold)
            check_now = (
                rounds % self.halt_check_interval == 0 or not progressed
            )
            if check_now and store.seen_count >= k:
                unseen_remain = store.seen_count < session.num_objects
                topk, m_k = store.current_topk()
                if not (unseen_remain and store.threshold > m_k):
                    if store.find_viable_outside(topk, m_k) is None:
                        halt_reason = HaltReason.NO_VIABLE
            if halt_reason is None and not progressed:
                topk, _ = store.current_topk()
                halt_reason = HaltReason.EXHAUSTED

        return self._finish(
            session,
            store,
            k,
            h,
            rounds,
            random_phases,
            escape_clauses,
            halt_reason,
            topk,
        )

    def _run_columnar(
        self, session: AccessSession, aggregation: AggregationFunction, k: int
    ) -> TopKResult:
        """The speculative chunked engine (see the module docstring).

        Differences from NRA's replay: at every global round divisible
        by ``h`` the random-access phase executes against the live
        store state (fields synced, bottoms set), reading the target's
        missing grades from the uncharged view and appending
        ``(round, target, missing lists)`` to the chunk's phase
        schedule, which the commit charges in one call, interleaved
        with the sorted prefix exactly as the scalar loop's accounting
        (wild-guess certification included); resolved objects join
        ``resolved`` so their later sorted re-discoveries are skipped
        (scalar ``record`` no-ops); and the witness is dropped if a
        phase resolves it.
        """
        db = session.columnar_view()
        order_rows = db._order_rows
        order_grades = db._order_grades
        n = db.num_objects
        m = session.num_lists
        h = self._period(session)
        store = ArrayCandidateStore(aggregation, m, k, n)
        field_matrix = store.field_matrix
        seen_rows = np.zeros(n, dtype=bool)
        resolved: set[int] = set()  # rows fully resolved by a phase
        w_map = store.w
        versions = store._version
        w_heap = store._w_heap
        b_heap = store._b_heap
        mk_members = store._mk_members
        mk_note = store._mk_note
        heappush = heapq.heappush
        interval = self.halt_check_interval
        check_every_round = interval == 1
        bottoms = store.bottoms
        positions = [session.position(i) for i in range(m)]
        probe = getattr(session, "probe", None)
        rounds = 0
        random_phases = 0
        escape_clauses = 0
        halt_reason = None
        topk: list = []
        witness = None
        chunk_rounds = 32
        # candidate rows for the B-greedy phase, kept in discovery order
        # (array position = order of first sorted appearance) so that
        # "first position among maxima" IS the canonical tie-break of
        # best_random_access_target.  cand_b carries each row's last
        # evaluated B (initially the ingestion-time cached B): since B
        # never increases, it upper-bounds the fresh value -- the
        # vectorised analogue of the lazy B-heap's cached keys.  Rows
        # whose bound falls to M_k or below are pruned permanently (the
        # _never_viable discard, vectorised).
        cand = np.empty(0, dtype=np.intp)
        cand_b = np.empty(0, dtype=np.float64)

        while halt_reason is None:
            if session.budget_exceeded:
                # chunk boundary: the store is committed and consistent
                topk, _ = store.current_topk()
                halt_reason = HaltReason.DEADLINE
                break
            if all(positions[i] >= n for i in range(m)):
                # zero-progress round: no phase fires; full check, then
                # EXHAUSTED
                rounds += 1
                if probe is not None:
                    probe.on_round(rounds, tau=store.threshold)
                if store.seen_count_value >= k:
                    topk, m_k = store.current_topk()
                    if not (
                        store.seen_count_value < n and store.threshold > m_k
                    ):
                        if store.find_viable_outside(topk, m_k) is None:
                            halt_reason = HaltReason.NO_VIABLE
                if halt_reason is None:
                    topk, _ = store.current_topk()
                    halt_reason = HaltReason.EXHAUSTED
                break
            # ---- chunk assembly (uncharged view reads) ----
            chunk = assemble_sorted_chunk(
                order_rows,
                order_grades,
                positions,
                range(m),
                (1,) * m,
                chunk_rounds,
                n,
                m,
                bottoms,
            )
            rep = ChunkReplay(
                chunk,
                aggregation,
                store,
                seen_rows,
                bottoms,
                m,
                track_new_entries=True,
            )
            c_eff = rep.c_eff
            round_ends = rep.round_ends
            w_list = rep.w_list
            b_arr = rep.b_arr
            b_list = rep.b_list
            tau_list = rep.tau_list
            bott = rep.bott
            bott_rows = rep.bott_rows
            new_entries = rep.new_entries
            seen_cum = rep.seen_cum
            seen_base = rep.seen_base
            rows_list = rep.rows_list
            rounds_list = rep.rounds_list
            # newly seen rows in discovery order; absorbed into the
            # phase candidate array as the replay reaches their rounds
            new_rows_chunk = chunk.rows[new_entries]
            absorbed = 0
            # (round, target row, missing lists) of this chunk's phases,
            # charged at commit
            phases: list[tuple[int, int, list[int]]] = []
            # ---- lazy-store floors (sound: M_k never decreases) ----
            if len(mk_members) < k:
                w_keep = b_keep = None
                kept = list(range(chunk.total))
            else:
                floor = store._mk_clean()
                w_keep_arr = rep.w_arr >= floor
                b_keep_arr = b_arr > floor
                w_keep = w_keep_arr.tolist()
                b_keep = b_keep_arr.tolist()
                kept = np.nonzero(w_keep_arr | b_keep_arr)[0].tolist()
            witness = rep.carry(witness)
            # ---- sequential replay: kept entries, phases, checks ----
            seq = store._seq
            ki = 0
            klen = len(kept)
            r_halt = None
            for r in range(c_eff):
                while ki < klen:
                    e = kept[ki]
                    if rounds_list[e] != r:
                        break
                    row = rows_list[e]
                    if row in resolved:
                        # sorted re-discovery of a random-access-resolved
                        # field: scalar record() is a no-op
                        ki += 1
                        continue
                    version = versions.get(row, 0) + 1
                    versions[row] = version
                    if w_keep is None or w_keep[e]:
                        w = w_list[e]
                        w_map[row] = w
                        seq += 1
                        heappush(w_heap, (-w, seq, row, version))
                        store._seq = seq
                        mk_note(row, w)
                        seq = store._seq
                    if b_keep is None or b_keep[e]:
                        seq += 1
                        heappush(b_heap, (-b_list[e], seq, row, version))
                    ki += 1
                gr = rounds + r + 1
                if gr % h == 0:
                    # random-access phase on the live store (every round
                    # inside a chunk progresses, so the phase always
                    # fires).  Target selection is the vectorised form
                    # of best_random_access_target: same candidate set
                    # (seen, missing fields, fresh B > M_k), same
                    # canonical max-fresh-B / discovery-order choice.
                    # Blocks of the highest-bounded rows are re-evaluated
                    # until no unevaluated bound can beat the best found
                    # -- the lazy-heap scan, vectorised.
                    rep.sync_fields(round_ends[r] + 1)
                    bottoms[:] = bott_rows[r]
                    store.seen_count_value = seen_base + seen_cum[r]
                    m_k = store.current_mk()
                    upto_new = seen_cum[r]
                    if upto_new > absorbed:
                        cand = np.concatenate(
                            [cand, new_rows_chunk[absorbed:upto_new]]
                        )
                        cand_b = np.concatenate(
                            [cand_b, b_arr[new_entries[absorbed:upto_new]]]
                        )
                        absorbed = upto_new
                    # a bound at or below M_k never clears it again
                    keep = cand_b > m_k
                    if not keep.all():
                        cand = cand[keep]
                        cand_b = cand_b[keep]
                    target = None
                    if cand.size:
                        evaluated = np.zeros(cand.size, dtype=bool)
                        has_missing = np.zeros(cand.size, dtype=bool)
                        best_b = m_k
                        bott_col = bott[r][:, None]
                        # every candidate clears M_k: the first pool
                        idxs = np.arange(cand.size)
                        while idxs.size:
                            # the block is the pool's 256 highest cached
                            # bounds; every other bound is <= the pivot
                            pivot = -np.inf
                            if idxs.size > 256:
                                cut = idxs.size - 256
                                part = np.argpartition(cand_b[idxs], cut)
                                pivot = cand_b[idxs[part[cut]]]
                                idxs = idxs[part[cut:]]
                            # column-major block: one contiguous row per
                            # list, so the bottoms fill and the missing
                            # test run along the lists' columns
                            sub = field_matrix.take(cand[idxs], axis=0).T.copy()
                            unknown_c = np.isnan(sub)
                            np.copyto(sub, bott_col, where=unknown_c)
                            fresh = aggregation.aggregate_batch(sub.T)
                            store.b_evaluations += idxs.size
                            cand_b[idxs] = fresh
                            evaluated[idxs] = True
                            miss = np.logical_or.reduce(unknown_c, axis=0)
                            has_missing[idxs] = miss
                            mx = fresh[miss].max(initial=-np.inf)
                            if mx > best_b:
                                best_b = mx
                            if pivot < best_b:
                                break
                            idxs = np.nonzero(
                                ~evaluated & (cand_b >= best_b)
                            )[0]
                        if best_b > m_k:
                            # has_missing marks evaluated rows only
                            sel = has_missing & (cand_b == best_b)
                            first = int(np.nonzero(sel)[0][0])
                            target = int(cand[first])
                            missing = np.nonzero(
                                np.isnan(field_matrix[target])
                            )[0].tolist()
                    if target is None:
                        escape_clauses += 1
                    else:
                        random_phases += 1
                        # speculated like the sorted entries: the grades
                        # come from the uncharged view, and the commit
                        # charges the phase after the sorted prefix of
                        # its first r + 1 rounds
                        grades_t = db._gather(
                            np.asarray([target], dtype=np.intp)
                        )[0].tolist()
                        fetched = [grades_t[j] for j in missing]
                        phases.append((r + 1, target, missing))
                        store._seq = seq
                        store.resolve_row_fields(target, missing, fetched)
                        seq = store._seq
                        resolved.add(target)
                        if witness is not None and witness.row == target:
                            # the witness is now fully known: it may
                            # enter the top-k, so it proves nothing
                            witness = None
                if check_every_round or gr % interval == 0:
                    seen_r = seen_base + seen_cum[r]
                    if seen_r >= k:
                        if len(mk_members) < k:
                            m_k = float("-inf")
                        else:
                            m_k = store._mk_clean()
                        skip = seen_r < n and tau_list[r] > m_k
                        if not skip and witness is not None:
                            # outside every possible T_k needs W < M_k;
                            # viability needs fresh B > M_k
                            w_wit = w_map.get(witness.row)
                            if w_wit is not None and w_wit < m_k:
                                if rep.witness_bound(witness, r) > m_k:
                                    skip = True
                        if not skip:
                            rep.sync_fields(round_ends[r] + 1)
                            bottoms[:] = bott_rows[r]
                            store.seen_count_value = seen_r
                            store._seq = seq
                            topk, m_k = store.current_topk()
                            if not (seen_r < n and store.threshold > m_k):
                                found = store.find_viable_outside(topk, m_k)
                                if found is None:
                                    halt_reason = HaltReason.NO_VIABLE
                                    r_halt = r
                                else:
                                    witness = ChunkWitness(
                                        found[0], chunk, after_round=r
                                    )
                            else:
                                witness = None
                            seq = store._seq
                            if r_halt is not None:
                                break
            store._seq = seq
            consumed = r_halt + 1 if r_halt is not None else c_eff
            upto_new = seen_cum[consumed - 1]
            if upto_new > absorbed:
                # consumed rows not yet absorbed become candidates for
                # the next chunk's phases
                cand = np.concatenate(
                    [cand, new_rows_chunk[absorbed:upto_new]]
                )
                cand_b = np.concatenate(
                    [cand_b, b_arr[new_entries[absorbed:upto_new]]]
                )
            rep.commit(session, positions, consumed, phases)
            rounds += consumed
            if probe is not None and consumed:
                taus = tuple(float(t) for t in tau_list[:consumed])
                probe.on_round(rounds, tau=taus[-1], taus=taus)
            chunk_rounds = min(chunk_rounds * 2, 2048)

        return self._finish(
            session,
            store,
            k,
            h,
            rounds,
            random_phases,
            escape_clauses,
            halt_reason,
            topk,
            ids=db._ids,
        )

    def _finish(
        self,
        session: AccessSession,
        store: CandidateStore,
        k: int,
        h: int,
        rounds: int,
        random_phases: int,
        escape_clauses: int,
        halt_reason,
        topk: list,
        ids: list | None = None,
    ) -> TopKResult:
        """Assemble the result; ``ids`` translates row-keyed candidates
        (the columnar engine's store) back to object ids."""
        items: list[RankedItem] = []
        for obj in topk:
            items.append(
                RankedItem(
                    obj if ids is None else ids[obj],
                    store.exact_grade(obj),
                    store.w[obj],
                    store.b_value(obj),
                )
            )
        items.sort(key=lambda it: (-it.lower_bound, -it.upper_bound))
        # imported lazily: repro.resilience builds on repro.core
        from ..resilience.degraded import finalize_certificates

        result = TopKResult(
            algorithm=self.name,
            k=k,
            items=items,
            stats=session.stats(),
            rounds=rounds,
            depth=session.depth,
            halt_reason=halt_reason,
            max_buffer_size=store.seen_count,
            extras={
                "h": h,
                "random_phases": random_phases,
                "escape_clauses": escape_clauses,
                "b_evaluations": store.b_evaluations,
            },
        )
        return finalize_certificates(result, session, store, topk)
