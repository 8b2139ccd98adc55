"""Stream-Combine (Guentzer, Balke, Kiessling) -- the upper-bounds-only
no-random-access baseline (Section 10 of the paper).

Stream-Combine, like NRA, uses sorted access only, but differs in two
ways the paper calls out to explain why it is *not* instance optimal:

1. it considers only **upper bounds** on overall grades (no ``W``
   bookkeeping), and
2. it must report exact grades, so it "cannot say that an object is in
   the top k unless that object has been seen in every sorted list".

It therefore halts only when ``k`` *fully seen* objects have (exact)
grades at least as large as every other object's upper bound ``B``
(including the virtual unseen object at the threshold).  On Example 8.3's
database NRA halts at depth 2 while Stream-Combine must scan essentially
all of ``L2`` to see the winner's last field -- an unbounded separation
measured in ``benchmarks/bench_related_heuristics.py``.

This is the *basic* (lockstep) version; the original paper adds a
list-scheduling heuristic orthogonal to the comparison made here.

Execution backends: on a columnar session
(:attr:`~repro.middleware.access.AccessSession.supports_batches`) the
algorithm runs a *speculative chunked engine*, bit-for-bit equivalent to
the scalar reference loop (differential-tested: same items, halting
round and reason, and access accounting), following the
speculate -> replay -> charge-prefix scheme of NRA and CA:

speculate
    read the next chunk of lockstep rounds through the uncharged
    ``columnar_view``; one ``aggregate_batch`` each yields every entry's
    cached ``B`` under the exact mid-round bottoms (Proposition 8.2),
    every round's threshold, and -- where an entry completes its object
    -- the exact overall grade (the 0-substituted row has no unknowns
    left, so it *is* ``t``'s value; Stream-Combine never uses partial
    ``W`` bounds, matching difference (1) above).
replay
    ingest the rounds in scalar order against an
    :class:`~repro.core.bounds.ArrayCandidateStore`: each row joins the
    store's candidate pool at its first appearance (upper-bounds-only
    bookkeeping needs no ``W``-heap and no ``M_k`` tracker), and only
    the entries that complete an object are replayed one by one,
    offering its exact grade to the fully-seen top-``k`` buffer in the
    scalar offer order (tie placement included).
charge prefix
    the replay locates the exact halting round and only the consumed
    prefix is charged through one ``charge_schedule`` call.

Two decision-neutral devices keep the sequential part small, sound
because the fully-seen floor ``M_k`` (the buffer's k-th exact grade)
never decreases while every ``B`` is non-increasing: the viability scan
drops pool rows whose bound is at or below ``M_k`` for good, and each
failed halting check yields a *viability witness* -- a not yet fully
seen object (hence outside the buffer) with ``B > M_k`` -- whose
standing, checked against a per-chunk vectorised ``B`` trajectory,
proves the full viability scan would not halt, letting it be skipped
until the witness falls or is fully seen.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.base import AggregationFunction
from ..middleware.access import AccessSession, ListCapabilities
from ..middleware.cost import UNIT_COSTS, CostModel
from ..middleware.database import Database
from .base import TopKAlgorithm, TopKBuffer
from .bounds import ArrayCandidateStore, CandidateStore
from .chunks import ChunkReplay, ChunkWitness, assemble_sorted_chunk
from .result import HaltReason, RankedItem, TopKResult

__all__ = ["StreamCombine"]


class StreamCombine(TopKAlgorithm):
    """Upper-bounds-only, grades-required, no-random-access top-k."""

    name = "StreamCombine"
    uses_random_access = False

    def make_session(
        self,
        database: Database,
        cost_model: CostModel = UNIT_COSTS,
        **session_kwargs,
    ) -> AccessSession:
        session_kwargs.setdefault(
            "capabilities", ListCapabilities(random_allowed=False)
        )
        return AccessSession(database, cost_model, **session_kwargs)

    def _run(
        self, session: AccessSession, aggregation: AggregationFunction, k: int
    ) -> TopKResult:
        if session.supports_batches:
            return self._run_columnar(session, aggregation, k)
        m = session.num_lists
        store = CandidateStore(aggregation, m, k)
        full = TopKBuffer(k)  # fully-seen objects by exact grade
        probe = getattr(session, "probe", None)
        rounds = 0
        halt_reason = None

        while halt_reason is None:
            if session.budget_exceeded:
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
                if store.record(obj, i, grade) and store.fully_known(obj):
                    full.offer(obj, store.w[obj])

            if probe is not None:
                probe.on_round(
                    rounds, tau=store.threshold, w=full.min_grade
                )
            if full.full:
                m_k = full.min_grade
                topk_objs = [obj for obj, _ in full.items_desc()]
                unseen_remain = store.seen_count < session.num_objects
                threshold_ok = (
                    not unseen_remain or store.threshold <= m_k
                )
                if threshold_ok and (
                    store.find_viable_outside(topk_objs, m_k) is None
                ):
                    halt_reason = HaltReason.NO_VIABLE
            if halt_reason is None and not progressed:
                halt_reason = HaltReason.EXHAUSTED

        fully_seen = len(full.items_desc())
        if not full.full and (
            halt_reason == HaltReason.DEADLINE or session.lost_lists
        ):
            # a deadline (or a lost list starving the exact-grade
            # buffer) forfeits the exact-grades-only contract: report
            # the store's current top-k with its bound intervals, so
            # the certificate machinery still has something to certify
            topk, _ = store.current_topk()
            items = [
                RankedItem(
                    obj,
                    store.exact_grade(obj),
                    store.w[obj],
                    store.b_value(obj),
                )
                for obj in topk
            ]
            items.sort(key=lambda it: (-it.lower_bound, -it.upper_bound))
            cert_topk = topk
        else:
            items = [
                RankedItem(obj, grade, grade, grade)
                for obj, grade in full.items_desc()
            ]
            cert_topk = [obj for obj, _ in full.items_desc()]
        return self._result(
            session, k, items, rounds, halt_reason, store, cert_topk,
            fully_seen,
        )

    def _run_columnar(
        self, session: AccessSession, aggregation: AggregationFunction, k: int
    ) -> TopKResult:
        """The speculative chunked engine (see the module docstring).

        Candidates are row indices into an
        :class:`~repro.core.bounds.ArrayCandidateStore`; the buffer of
        fully seen objects is keyed by row and translated back to object
        ids at the end.  Only the candidate pool is maintained:
        Stream-Combine's halting machinery touches candidates
        exclusively through ``find_viable_outside``.
        """
        db = session.columnar_view()
        order_rows = db._order_rows
        order_grades = db._order_grades
        n = db.num_objects
        m = session.num_lists
        store = ArrayCandidateStore(aggregation, m, k, n)
        seen_rows = np.zeros(n, dtype=bool)
        w_map = store.w
        full = TopKBuffer(k)
        offer = full.offer
        bottoms = store.bottoms
        positions = [session.position(i) for i in range(m)]
        probe = getattr(session, "probe", None)
        rounds = 0
        halt_reason = None
        witness = None
        chunk_rounds = 32

        while halt_reason is None:
            if session.budget_exceeded:
                # chunk boundary: the store is committed and consistent
                halt_reason = HaltReason.DEADLINE
                break
            if all(positions[i] >= n for i in range(m)):
                # zero-progress round: full check, then EXHAUSTED
                rounds += 1
                if probe is not None:
                    probe.on_round(
                        rounds, tau=store.threshold, w=full.min_grade
                    )
                if full.full:
                    m_k = full.min_grade
                    topk_objs = [obj for obj, _ in full.items_desc()]
                    if not (
                        store.seen_count_value < n and store.threshold > m_k
                    ):
                        if (
                            store.find_viable_outside(topk_objs, m_k)
                            is None
                        ):
                            halt_reason = HaltReason.NO_VIABLE
                if halt_reason is None:
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
            rep = ChunkReplay(chunk, aggregation, store, seen_rows, bottoms, m)
            c_eff = rep.c_eff
            # for complete entries the 0-substituted row has no unknowns:
            # their W is the exact overall grade
            starts, rows, ws = rep.select(~rep.unknown.any(axis=1))
            tau_list = rep.tau_list
            seen_cum = rep.seen_cum
            seen_base = rep.seen_base
            witness = rep.carry(witness)
            # ---- sequential replay: completions + per-round checks ----
            r_halt = None
            for r in range(c_eff):
                for j in range(starts[r], starts[r + 1]):
                    row = rows[j]
                    w = ws[j]
                    w_map[row] = w
                    offer(row, w)
                    if witness is not None and witness.row == row:
                        # a fully seen witness may enter the buffer; it
                        # no longer proves the check fails
                        witness = None
                if not full.full:
                    continue
                m_k = full.min_grade
                seen_r = seen_base + seen_cum[r]
                if seen_r < n and tau_list[r] > m_k:
                    continue
                if witness is not None and rep.witness_bound(witness, r) > m_k:
                    # not fully seen => outside the buffer, and viable
                    continue
                rep.sync_to(r)
                topk_objs = [obj for obj, _ in full.items_desc()]
                found = store.find_viable_outside(topk_objs, m_k)
                if found is None:
                    halt_reason = HaltReason.NO_VIABLE
                    r_halt = r
                    break
                witness = ChunkWitness(found[0], chunk, after_round=r)
            consumed = r_halt + 1 if r_halt is not None else c_eff
            rep.commit(session, positions, consumed)
            rounds += consumed
            if probe is not None and consumed:
                taus = tuple(float(t) for t in tau_list[:consumed])
                probe.on_round(
                    rounds, tau=taus[-1], w=full.min_grade, taus=taus
                )
            chunk_rounds = min(chunk_rounds * 2, 2048)

        ids = db._ids
        fully_seen = len(full.items_desc())
        if halt_reason == HaltReason.DEADLINE and not full.full:
            # the W-heap is never fed here (upper-bounds-only
            # bookkeeping), so rank the committed field matrix by the
            # 0-substituted lower bound directly
            matrix = store.field_matrix
            known = ~np.isnan(matrix)
            seen_idx = np.nonzero(known.any(axis=1))[0]
            topk_rows: list[int] = []
            items = []
            if seen_idx.size:
                w_all = aggregation.aggregate_batch(
                    np.where(known[seen_idx], matrix[seen_idx], 0.0)
                )
                best = np.argsort(-w_all, kind="stable")[:k]
                topk_rows = seen_idx[best].tolist()
                for row, w in zip(topk_rows, w_all[best].tolist()):
                    w_map.setdefault(row, w)
                items = [
                    RankedItem(
                        ids[row],
                        store.exact_grade(row),
                        w_map[row],
                        store.b_value(row),
                    )
                    for row in topk_rows
                ]
                items.sort(
                    key=lambda it: (-it.lower_bound, -it.upper_bound)
                )
            cert_topk: list = topk_rows
        else:
            items = [
                RankedItem(ids[row], grade, grade, grade)
                for row, grade in full.items_desc()
            ]
            cert_topk = [row for row, _ in full.items_desc()]
        return self._result(
            session, k, items, rounds, halt_reason, store, cert_topk,
            fully_seen,
        )

    def _result(
        self,
        session: AccessSession,
        k: int,
        items: list[RankedItem],
        rounds: int,
        halt_reason,
        store: CandidateStore,
        cert_topk: list,
        fully_seen: int,
    ) -> TopKResult:
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
            extras={"fully_seen": fully_seen},
        )
        return finalize_certificates(result, session, store, cert_topk)
