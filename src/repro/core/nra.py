"""NRA -- the No Random Access algorithm (Section 8.1).

When random access is impossible (web search engines, Section 2), the
output requirement is weakened to the top-``k`` *objects* without grades
-- Example 8.3 shows identifying a winner can be arbitrarily cheaper than
grading it.  NRA does lockstep sorted access, maintains the bound pair
``W(R) <= t(R) <= B(R)`` for every seen object, keeps the current top-``k``
``T_k`` by ``W`` (ties by ``B``), and halts when at least ``k`` distinct
objects have been seen and no *viable* object (``B(R) > M_k``) remains
outside ``T_k`` -- counting the virtual unseen object, whose ``B`` is the
threshold ``t(bottoms)``.

Correctness is Theorem 8.4; instance optimality over all no-random-access
algorithms, with (tight, for strict ``t``) ratio ``m``, is Theorem 8.5 /
Corollary 8.6 / Theorem 9.5.

``naive_bookkeeping=True`` switches the candidate store to the
``Omega(d^2 m)`` rescan-everything mode of Remark 8.7 (same answers; used
as an oracle in tests and measured in the bookkeeping ablation).
``halt_check_interval`` trades halting-check work for (slightly) late
stops -- checking every ``c`` rounds can overshoot the paper's halting
depth by at most ``c - 1`` rounds.

Execution backends: on a columnar session
(:attr:`~repro.middleware.access.AccessSession.supports_batches`) NRA
runs a speculative chunked engine that is bit-for-bit equivalent to
the scalar loop (differential-tested: same top-k, same halting round
and reason, same access accounting).  Per chunk of lockstep rounds,
read ahead through the uncharged ``columnar_view``: every entry's
``W`` and cached ``B`` and every round's threshold come from one
``aggregate_batch`` each, the rounds are then replayed in scalar
order against an :class:`~repro.core.bounds.ArrayCandidateStore`
(fields committed with one vectorised scatter), and only the consumed
prefix is charged through one ``charge_schedule`` call.  Upper
bounds never enter a heap: each row joins the store's vectorised
candidate pool once, with its first entry's cached ``B``, and the
viability scan prunes and refreshes the pool in blocks.  Three
decision-neutral gates keep the sequential part tiny: while
``t(bottoms) > theta * M_k`` (with unseen objects remaining) no
halting check can succeed, so none runs; entries whose ``W`` sits
below the non-decreasing ``M_k`` floor are not replayed at all; and
each failed halting check yields a *viability witness* -- a seen
object outside every possible ``T_k`` (``W < M_k``) that is still
viable (``B > theta * M_k``) -- whose standing proves
``find_viable_outside`` would return non-``None``, letting the full
top-k/viability scan be skipped until the witness falls.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.base import AggregationFunction
from ..middleware.access import AccessSession, ListCapabilities
from ..middleware.cost import UNIT_COSTS, CostModel
from ..middleware.database import Database
from .base import TopKAlgorithm
from .bounds import ArrayCandidateStore, CandidateStore
from .chunks import ChunkReplay, ChunkWitness, assemble_sorted_chunk
from .result import HaltReason, RankedItem, TopKResult

__all__ = ["NoRandomAccessAlgorithm"]


class NoRandomAccessAlgorithm(TopKAlgorithm):
    """NRA: top-``k`` objects using sorted access only."""

    name = "NRA"
    uses_random_access = False

    def __init__(
        self,
        naive_bookkeeping: bool = False,
        halt_check_interval: int = 1,
        theta: float = 1.0,
    ):
        """``theta > 1`` enables the approximation variant (an extension
        in the spirit of Section 6.2 applied to Section 8.1): halt once
        no object outside ``T_k`` has ``B(R) > theta * M_k``.  Then for
        every returned ``y`` and excluded ``z``,
        ``t(z) <= B(z) <= theta * M_k <= theta * W(y) <= theta * t(y)``,
        i.e. the output is a theta-approximation -- still with zero
        random accesses."""
        if halt_check_interval < 1:
            raise ValueError(
                f"halt_check_interval must be >= 1, got {halt_check_interval}"
            )
        if theta < 1.0:
            raise ValueError(f"theta must be >= 1, got {theta}")
        self.naive_bookkeeping = naive_bookkeeping
        self.halt_check_interval = halt_check_interval
        self.theta = theta
        if naive_bookkeeping:
            self.name = "NRA(naive)"
        if theta > 1.0:
            self.name = f"NRA(theta={theta:g})"

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
        # the chunked engine needs the W-heap bookkeeping (for
        # current_mk), so the Remark 8.7 naive oracle always runs the
        # scalar loop
        if session.supports_batches and not self.naive_bookkeeping:
            return self._run_columnar(session, aggregation, k)
        m = session.num_lists
        store = CandidateStore(aggregation, m, k, naive=self.naive_bookkeeping)
        probe = getattr(session, "probe", None)
        rounds = 0
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
            if probe is not None:
                probe.on_round(rounds, tau=store.threshold)
            check_now = (
                rounds % self.halt_check_interval == 0 or not progressed
            )
            if check_now and store.seen_count >= k:
                topk, m_k = store.current_topk()
                cutoff = m_k if self.theta == 1.0 else self.theta * m_k
                unseen_remain = store.seen_count < session.num_objects
                if not (unseen_remain and store.threshold > cutoff):
                    if store.find_viable_outside(topk, cutoff) is None:
                        halt_reason = HaltReason.NO_VIABLE
            if halt_reason is None and not progressed:
                # exhausted everything: every bound is exact, so the
                # current top-k is final
                topk, _ = store.current_topk()
                halt_reason = HaltReason.EXHAUSTED

        return self._finish(session, store, k, rounds, halt_reason, topk)

    def _run_columnar(
        self, session: AccessSession, aggregation: AggregationFunction, k: int
    ) -> TopKResult:
        """The speculative chunked engine (see the module docstring).

        Candidates are row indices into an
        :class:`~repro.core.bounds.ArrayCandidateStore`: per chunk, every
        entry's ``W`` and cached ``B`` and every round's threshold come
        from one ``aggregate_batch`` each; the field matrix is committed
        with a single vectorised scatter (synced early only at the rare
        full halting checks); and the sequential part of the scan visits
        only the entries that can move ``T_k``.

        Decision-neutral refinements (sound because ``M_k`` never
        decreases and ``W`` per object never decreases):

        * an entry whose ``W`` is below the chunk-start ``M_k`` floor can
          never enter the top-``k``, so the replay skips it (no version
          bump, ``W``-heap push or ``M_k`` note);
        * upper bounds never reach a heap: each row joins the store's
          candidate pool once, at its first sorted appearance, and the
          viability scan prunes and refreshes the pool in vectorised
          blocks;
        * each failed halting check yields a *viability witness*: an
          object outside every possible ``T_k`` (``W < M_k``) that is
          still viable (``B > theta * M_k``).  While it stands --
          checked against a per-chunk vectorised ``B`` trajectory --
          ``find_viable_outside`` would certainly return non-``None``,
          so the full top-k/viability scan is skipped.  A witness with
          no recorded ``W`` counts as ``W < M_k``: every entry of its
          row had ``W`` below its chunk's floor, which is at most
          ``M_k``.
        """
        db = session.columnar_view()
        order_rows = db._order_rows
        order_grades = db._order_grades
        n = db.num_objects
        m = session.num_lists
        probe = getattr(session, "probe", None)
        store = ArrayCandidateStore(aggregation, m, k, n)
        seen_rows = np.zeros(n, dtype=bool)
        w_map = store.w
        note_w = store.note_w
        interval = self.halt_check_interval
        check_every_round = interval == 1
        theta = self.theta
        bottoms = store.bottoms
        positions = [session.position(i) for i in range(m)]
        rounds = 0
        halt_reason = None
        topk: list = []
        witness = None
        chunk_rounds = 32

        while halt_reason is None:
            if session.budget_exceeded:
                # chunk boundary: the store is committed and consistent
                topk, _ = store.current_topk()
                halt_reason = HaltReason.DEADLINE
                break
            if all(positions[i] >= n for i in range(m)):
                # zero-progress round: full check, then EXHAUSTED
                rounds += 1
                if probe is not None:
                    probe.on_round(rounds, tau=store.threshold)
                if store.seen_count_value >= k:
                    topk, m_k = store.current_topk()
                    cutoff = m_k if theta == 1.0 else theta * m_k
                    if not (
                        store.seen_count_value < n and store.threshold > cutoff
                    ):
                        if store.find_viable_outside(topk, cutoff) is None:
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
            rep = ChunkReplay(chunk, aggregation, store, seen_rows, bottoms, m)
            c_eff = rep.c_eff
            tau_list = rep.tau_list
            seen_cum = rep.seen_cum
            seen_base = rep.seen_base
            # ---- the W floor (sound: M_k never decreases) ----
            mk = store.current_mk()
            starts, rows, ws = rep.select(rep.w_arr >= mk)
            witness = rep.carry(witness)
            # ---- sequential replay: kept entries + per-round checks ----
            r_halt = None
            for r in range(c_eff):
                if starts[r] < starts[r + 1]:
                    for j in range(starts[r], starts[r + 1]):
                        note_w(rows[j], ws[j])
                    mk = store.current_mk()  # only W notes move M_k
                if not (check_every_round or (rounds + r + 1) % interval == 0):
                    continue
                seen_r = seen_base + seen_cum[r]
                if seen_r < k:
                    continue
                cutoff = mk if theta == 1.0 else theta * mk
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
                witness = ChunkWitness(found[0], chunk, after_round=r)
            consumed = r_halt + 1 if r_halt is not None else c_eff
            rep.commit(session, positions, consumed)
            rounds += consumed
            if probe is not None and consumed:
                taus = tuple(float(t) for t in tau_list[:consumed])
                probe.on_round(rounds, tau=taus[-1], taus=taus)
            chunk_rounds = min(chunk_rounds * 2, 2048)

        return self._finish(
            session, store, k, rounds, halt_reason, topk, ids=db._ids
        )

    def _finish(
        self,
        session: AccessSession,
        store: CandidateStore,
        k: int,
        rounds: int,
        halt_reason,
        topk: list,
        ids: list | None = None,
    ) -> TopKResult:
        """Assemble the result; ``ids`` translates row-keyed candidates
        (the columnar engine's store) back to object ids."""
        # imported lazily: repro.resilience builds on repro.core
        from ..resilience.degraded import finalize_certificates

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
        result = TopKResult(
            algorithm=self.name,
            k=k,
            items=items,
            stats=session.stats(),
            rounds=rounds,
            depth=session.depth,
            halt_reason=halt_reason,
            max_buffer_size=store.seen_count,
            extras={"b_evaluations": store.b_evaluations},
        )
        return finalize_certificates(result, session, store, topk)
