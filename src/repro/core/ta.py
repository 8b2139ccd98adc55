"""TA -- the Threshold Algorithm (Section 4), the paper's central object.

The loop is exactly the paper's:

1. Sorted access in parallel to each list.  Every object seen under
   sorted access is immediately resolved by random access to the other
   ``m - 1`` lists, its overall grade computed, and offered to a
   ``k``-slot buffer.
2. After each round, the *threshold* ``tau = t(bottom_1, ..., bottom_m)``
   is recomputed from the last grades seen under sorted access.  Halt as
   soon as the buffer holds ``k`` objects with grade ``>= tau``.

Correctness for every monotone ``t`` is Theorem 4.1 (an unseen object has
every field at or below the bottoms, so its grade is at most ``tau``).
Instance optimality over no-wild-guess algorithms is Theorem 6.1, with
ratio ``m + m(m-1) cR/cS`` tight for strict ``t`` (Corollary 6.2).

Two implementation switches:

``remember_seen=False`` (default)
    The paper's bounded-buffer TA (Theorem 4.2): grades learned earlier
    are deliberately *not* cached, so re-seeing an object re-pays
    ``m - 1`` random accesses.  Buffer = ``k`` objects + ``m`` bottoms.
``remember_seen=True``
    The practical variant with an unbounded seen-cache that skips
    duplicate random accesses -- the memory/cost trade-off the paper
    discusses after Theorem 4.2, measurable via ``max_buffer_size``.

Execution backends: when the session reports
:attr:`~repro.middleware.access.AccessSession.supports_batches` (columnar
database, no trace), TA runs on a *speculative chunked engine*: it scans
a chunk of upcoming rounds through the uncharged
:meth:`~repro.middleware.access.AccessSession.columnar_view`, computes
every candidate overall grade and every round's threshold in one
``aggregate_batch`` each, replays the paper's per-round loop (buffer
offers, threshold test, exhaustion test -- all via the same hooks the
scalar loop uses) to locate the exact halting round, then charges
exactly the consumed prefix through ``sorted_access_batch`` /
``random_access_batch``.  Results, halting reason, rounds, and every
access count are identical to the scalar reference loop -- the
differential test suite holds the two paths equal bit for bit; the
speculative read-ahead is an engine-level device that never influences
the output (see ``columnar_view``'s contract).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ..aggregation.base import AggregationFunction
from ..middleware.access import AccessSession
from ..middleware.errors import ListLostError
from .base import QueryError, TopKAlgorithm, TopKBuffer
from .bounds import CandidateStore
from .chunks import assemble_sorted_chunk
from .result import HaltReason, RankedItem, TopKResult

__all__ = ["ThresholdAlgorithm", "EarlyStopView"]


@dataclass(frozen=True)
class EarlyStopView:
    """Snapshot shown to an interactive user after each round
    (Section 6.2's early-stopping protocol).

    ``guarantee`` is the paper's ``theta = tau / beta``: the current top-k
    list is a ``theta``-approximation to the true top-k.  It is ``1`` (or
    less) exactly when TA's stopping rule has fired.
    """

    round: int
    depth: int
    items: tuple[tuple[Hashable, float], ...]
    tau: float
    beta: float

    @property
    def guarantee(self) -> float:
        if self.beta <= 0:
            return float("inf")
        return max(1.0, self.tau / self.beta)


class ThresholdAlgorithm(TopKAlgorithm):
    """TA, faithful to Section 4 (see module docstring).

    ``batch_sizes`` implements footnote 6's relaxation: list ``i``
    receives ``batch_sizes[i]`` sorted accesses per round instead of
    one.  Correctness is unchanged (the threshold always uses the
    current bottoms), and instance optimality survives because the
    access rates stay within constant multiples of each other.
    """

    name = "TA"

    def __init__(
        self,
        remember_seen: bool = False,
        batch_sizes: Sequence[int] | None = None,
    ):
        self.remember_seen = remember_seen
        if batch_sizes is not None:
            batch_sizes = tuple(int(b) for b in batch_sizes)
            if not batch_sizes or any(b < 1 for b in batch_sizes):
                raise ValueError(
                    f"batch sizes must be positive integers, got {batch_sizes}"
                )
        self.batch_sizes = batch_sizes
        if remember_seen:
            self.name = "TA(cache)"
        if batch_sizes is not None:
            self.name += f"(batches={list(batch_sizes)})"

    # ------------------------------------------------------------------
    # hooks overridden by TA-theta and TAZ
    # ------------------------------------------------------------------
    def _halt_on_threshold(self, buffer: TopKBuffer, tau: float) -> bool:
        """The paper's stopping rule: k buffered objects with grade >= tau."""
        return buffer.full and buffer.min_grade >= tau

    def _lists_for_sorted_access(self, session: AccessSession) -> Sequence[int]:
        return range(session.num_lists)

    # ------------------------------------------------------------------
    def _run(
        self, session: AccessSession, aggregation: AggregationFunction, k: int
    ) -> TopKResult:
        return self._execute(session, aggregation, k, observer=None)

    def _execute(
        self,
        session: AccessSession,
        aggregation: AggregationFunction,
        k: int,
        observer: Callable[[EarlyStopView], bool] | None,
    ) -> TopKResult:
        m = session.num_lists
        sorted_lists = list(self._lists_for_sorted_access(session))
        if self.batch_sizes is not None and len(self.batch_sizes) != len(
            sorted_lists
        ):
            raise QueryError(
                f"{self.name}: got {len(self.batch_sizes)} batch sizes for "
                f"{len(sorted_lists)} sorted-accessible lists"
            )
        batches = self.batch_sizes or (1,) * len(sorted_lists)
        if session.supports_batches:
            return self._execute_columnar(
                session, aggregation, k, observer, sorted_lists, batches, m
            )
        buffer = TopKBuffer(k)
        bottoms = [1.0] * m
        probe = getattr(session, "probe", None)
        cache: dict[Hashable, dict[int, float]] | None = (
            {} if self.remember_seen else None
        )
        # survive mode keeps a shadow candidate store from round one:
        # TA's own buffer requires full resolution, which dies with the
        # lost list's random access, but the shadow's W/B bounds stay
        # sound and let complete_with_sorted_only finish NRA-style
        shadow = (
            CandidateStore(aggregation, m, k)
            if session.survive_list_loss
            else None
        )
        lost_hit = False
        rounds = 0
        max_buffer = 0
        halt_reason = None

        while halt_reason is None:
            if session.budget_exceeded:
                halt_reason = HaltReason.DEADLINE
                break
            rounds += 1
            progressed = False
            for i, batch in zip(sorted_lists, batches):
                for _ in range(batch):
                    entry = session.sorted_access(i)
                    if entry is None:
                        break
                    progressed = True
                    obj, grade = entry
                    bottoms[i] = grade
                    if shadow is not None:
                        shadow.update_bottom(i, grade)
                        shadow.record(obj, i, grade)
                    try:
                        overall = self._resolve(
                            session, aggregation, obj, i, grade, m, cache,
                            shadow,
                        )
                    except ListLostError:
                        lost_hit = True
                        break
                    buffer.offer(obj, overall)
                if lost_hit:
                    break
            if lost_hit or (shadow is not None and session.lost_lists):
                return self._complete_degraded(
                    session,
                    aggregation,
                    k,
                    shadow,
                    rounds,
                    max_buffer,
                    sorted_lists,
                )
            max_buffer = max(
                max_buffer, len(buffer) + (len(cache) if cache is not None else 0)
            )
            tau = aggregation.aggregate(tuple(bottoms))
            if probe is not None:
                probe.on_round(rounds, tau=tau, w=buffer.min_grade, b=tau)
            if self._halt_on_threshold(buffer, tau):
                halt_reason = HaltReason.THRESHOLD
            elif observer is not None and buffer.full:
                view = EarlyStopView(
                    round=rounds,
                    depth=session.depth,
                    items=tuple(buffer.items_desc()),
                    tau=tau,
                    beta=buffer.min_grade,
                )
                if observer(view):
                    halt_reason = HaltReason.INTERACTIVE
            if halt_reason is None:
                if not progressed:
                    # every sorted-capable list is exhausted: every object
                    # has been seen and resolved, so the buffer is exact
                    halt_reason = HaltReason.EXHAUSTED
                elif any(session.exhausted(i) for i in sorted_lists):
                    # one list ran dry mid-run: every object has appeared in
                    # it, hence has been seen and resolved already
                    halt_reason = HaltReason.EXHAUSTED

        tau = aggregation.aggregate(tuple(bottoms))
        beta = buffer.min_grade
        items = [
            RankedItem(obj, grade, grade, grade)
            for obj, grade in buffer.items_desc()
        ]
        extras = {
            "final_threshold": tau,
            "guarantee": max(1.0, tau / beta) if beta > 0 else float("inf"),
        }
        if halt_reason == HaltReason.DEADLINE:
            # THRESHOLD would have fired at guarantee <= 1: the same
            # tau/beta ratio IS the certified factor at the deadline
            extras["certified_theta"] = extras["guarantee"]
        return TopKResult(
            algorithm=self.name,
            k=k,
            items=items,
            stats=session.stats(),
            rounds=rounds,
            depth=session.depth,
            halt_reason=halt_reason,
            max_buffer_size=max_buffer,
            extras=extras,
        )

    def _complete_degraded(
        self,
        session: AccessSession,
        aggregation: AggregationFunction,
        k: int,
        shadow: CandidateStore,
        rounds: int,
        max_buffer: int,
        sorted_lists: Sequence[int],
    ) -> TopKResult:
        """A list died mid-run: finish NRA-style over the survivors
        using the shadow store's (still sound) W/B bounds, and report a
        certified :class:`~repro.resilience.degraded.DegradedResult`."""
        # imported lazily: repro.resilience builds on repro.core
        from ..resilience.degraded import (
            complete_with_sorted_only,
            finalize_certificates,
        )

        topk, rounds, halt_reason = complete_with_sorted_only(
            session, aggregation, k, shadow, rounds, lists=sorted_lists
        )
        items = [
            RankedItem(
                obj,
                shadow.exact_grade(obj),
                shadow.w[obj],
                shadow.b_value(obj),
            )
            for obj in topk
        ]
        items.sort(key=lambda it: (-it.lower_bound, -it.upper_bound))
        result = TopKResult(
            algorithm=self.name,
            k=k,
            items=items,
            stats=session.stats(),
            rounds=rounds,
            depth=session.depth,
            halt_reason=halt_reason,
            max_buffer_size=max(max_buffer, shadow.seen_count),
            extras={"final_threshold": shadow.threshold},
        )
        return finalize_certificates(result, session, shadow, topk)

    def _execute_columnar(
        self,
        session: AccessSession,
        aggregation: AggregationFunction,
        k: int,
        observer: Callable[[EarlyStopView], bool] | None,
        sorted_lists: Sequence[int],
        batches: Sequence[int],
        m: int,
    ) -> TopKResult:
        """The speculative chunked engine (see the module docstring).

        Per chunk: read the next ``chunk_rounds`` rounds' worth of sorted
        entries through the uncharged columnar view, compute every
        overall grade and every round's threshold vectorised, replay the
        paper's rounds sequentially (through the same
        ``_halt_on_threshold`` / observer hooks as the scalar loop) to
        find the exact halting round, then charge precisely the consumed
        prefix through the session's batched access methods.
        """
        db = session.columnar_view()
        order_rows = db._order_rows
        order_grades = db._order_grades
        n = db.num_objects
        buffer = TopKBuffer(k)
        offer = buffer.offer
        bottoms = [1.0] * m
        probe = getattr(session, "probe", None)
        cache: dict[Hashable, dict[int, float]] | None = (
            {} if self.remember_seen else None
        )
        positions = [session.position(i) for i in range(m)]
        rounds = 0
        max_buffer = 0
        halt_reason = None
        chunk_rounds = 32

        while halt_reason is None:
            if session.budget_exceeded:
                # chunk boundary: everything consumed has been charged
                halt_reason = HaltReason.DEADLINE
                break
            # ---- speculative chunk assembly (uncharged view reads) ----
            chunk = assemble_sorted_chunk(
                order_rows,
                order_grades,
                positions,
                sorted_lists,
                batches,
                chunk_rounds,
                n,
                m,
                bottoms,
            )
            if chunk is None:
                # phantom round on a fully exhausted database: replay the
                # scalar tail exactly (threshold, observer, exhaustion)
                rounds += 1
                tau = aggregation.aggregate(tuple(bottoms))
                if probe is not None:
                    probe.on_round(rounds, tau=tau, w=buffer.min_grade, b=tau)
                if self._halt_on_threshold(buffer, tau):
                    halt_reason = HaltReason.THRESHOLD
                elif observer is not None and buffer.full:
                    view = EarlyStopView(
                        round=rounds,
                        depth=max(positions),
                        items=tuple(buffer.items_desc()),
                        tau=tau,
                        beta=buffer.min_grade,
                    )
                    if observer(view):
                        halt_reason = HaltReason.INTERACTIVE
                if halt_reason is None:
                    halt_reason = HaltReason.EXHAUSTED
                break
            counts = chunk.counts
            rows_all = chunk.rows
            grades_all = chunk.grades
            rounds_all = chunk.rounds
            lists_all = chunk.lists
            total = chunk.total
            c_eff = chunk.c_eff
            bott = chunk.bottoms_matrix
            overall_arr = aggregation.aggregate_batch(db._gather(rows_all))
            overall = overall_arr.tolist()
            objs_all = db.ids_for_rows(rows_all)
            rounds_list = rounds_all.tolist()
            tau_list = aggregation.aggregate_batch(bott).tolist()
            # first round (if any) in which some list runs dry
            exhaust_round = None
            for idx, i in enumerate(sorted_lists):
                c = counts[idx]
                if positions[i] + c >= n:
                    r = (c - 1) // batches[idx] if c > 0 else 0
                    if exhaust_round is None or r < exhaust_round:
                        exhaust_round = r
            # prefilter: entries that cannot enter the buffer (grade not
            # strictly above the current floor) are skipped -- offer()
            # would reject them unchanged, and the floor only rises
            if buffer.full:
                accepted = np.nonzero(overall_arr > buffer.min_grade)[0].tolist()
            else:
                accepted = list(range(total))
            # ---- exact sequential replay of the paper's rounds ----
            halt_round = None
            ai = 0
            acc_len = len(accepted)
            for r in range(c_eff):
                while ai < acc_len and rounds_list[accepted[ai]] == r:
                    p = accepted[ai]
                    offer(objs_all[p], overall[p])
                    ai += 1
                tau = tau_list[r]
                if self._halt_on_threshold(buffer, tau):
                    halt_reason = HaltReason.THRESHOLD
                    halt_round = r
                    break
                if observer is not None and buffer.full:
                    depth = 0
                    for idx, i in enumerate(sorted_lists):
                        d = positions[i] + min(
                            (r + 1) * batches[idx], counts[idx]
                        )
                        if d > depth:
                            depth = d
                    view = EarlyStopView(
                        round=rounds + r + 1,
                        depth=depth,
                        items=tuple(buffer.items_desc()),
                        tau=tau,
                        beta=buffer.min_grade,
                    )
                    if observer(view):
                        halt_reason = HaltReason.INTERACTIVE
                        halt_round = r
                        break
                if exhaust_round is not None and r >= exhaust_round:
                    halt_reason = HaltReason.EXHAUSTED
                    halt_round = r
                    break
            consumed = halt_round + 1 if halt_round is not None else c_eff
            # ---- commit: charge exactly the consumed prefix ----
            for idx, i in enumerate(sorted_lists):
                c = min(consumed * batches[idx], counts[idx])
                if c:
                    session.sorted_access_batch(i, c)
                    positions[i] += c
            upto = chunk.consumed_upto(consumed)
            bottoms[:] = bott[consumed - 1].tolist()
            rows_prefix = rows_all[:upto]
            lists_prefix = lists_all[:upto]
            if cache is None:
                if m > 1:
                    # bounded-buffer TA: every entry re-pays m - 1
                    # random accesses, order-independent per list
                    for j in range(m):
                        mask = lists_prefix != j
                        rows_j = rows_prefix[mask]
                        if rows_j.size:
                            session.random_access_batch(j, None, rows=rows_j)
            else:
                # seen-cache: plan sequentially in scalar order so
                # duplicates skip exactly the same accesses
                pending_objs: list[list] = [[] for _ in range(m)]
                pending_rows: list[list[int]] = [[] for _ in range(m)]
                rows_pref = rows_prefix.tolist()
                lists_pref = lists_prefix.tolist()
                grades_pref = grades_all[:upto].tolist()
                for p in range(upto):
                    obj = objs_all[p]
                    known = cache.setdefault(obj, {})
                    known[lists_pref[p]] = grades_pref[p]
                    for j in range(m):
                        if j not in known:
                            known[j] = None  # filled after the gather
                            pending_objs[j].append(obj)
                            pending_rows[j].append(rows_pref[p])
                for j in range(m):
                    if pending_objs[j]:
                        fetched = session.random_access_batch(
                            j,
                            pending_objs[j],
                            rows=np.asarray(pending_rows[j], dtype=np.intp),
                        )
                        for obj, g in zip(pending_objs[j], fetched.tolist()):
                            cache[obj][j] = g
            rounds += consumed
            if probe is not None and consumed:
                taus = tuple(float(t) for t in tau_list[:consumed])
                probe.on_round(
                    rounds, tau=taus[-1], w=buffer.min_grade, b=taus[-1],
                    taus=taus,
                )
            size = len(buffer) + (len(cache) if cache is not None else 0)
            if size > max_buffer:
                max_buffer = size
            chunk_rounds = min(chunk_rounds * 2, 4096)

        tau = aggregation.aggregate(tuple(bottoms))
        beta = buffer.min_grade
        items = [
            RankedItem(obj, grade, grade, grade)
            for obj, grade in buffer.items_desc()
        ]
        extras = {
            "final_threshold": tau,
            "guarantee": max(1.0, tau / beta) if beta > 0 else float("inf"),
        }
        if halt_reason == HaltReason.DEADLINE:
            extras["certified_theta"] = extras["guarantee"]
        return TopKResult(
            algorithm=self.name,
            k=k,
            items=items,
            stats=session.stats(),
            rounds=rounds,
            depth=session.depth,
            halt_reason=halt_reason,
            max_buffer_size=max_buffer,
            extras=extras,
        )

    def _resolve(
        self,
        session: AccessSession,
        aggregation: AggregationFunction,
        obj: Hashable,
        seen_list: int,
        seen_grade: float,
        m: int,
        cache: dict[Hashable, dict[int, float]] | None,
        shadow: CandidateStore | None = None,
    ) -> float:
        """Fetch all fields of ``obj`` (random access to the other
        lists) and return its overall grade.  The cross-list fetch goes
        through :meth:`~repro.middleware.access.AccessSession.random_access_across`
        -- the per-list scalar loop on local sessions, concurrently
        overlapped round trips (same charging) on remote ones.  In
        survive mode, every grade actually fetched is mirrored into the
        ``shadow`` store (nothing is recorded when the fetch raises)."""
        if cache is None:
            others = [j for j in range(m) if j != seen_list]
            fetched = iter(session.random_access_across(obj, others))
            grades = tuple(
                seen_grade if j == seen_list else next(fetched)
                for j in range(m)
            )
            if shadow is not None:
                for j in others:
                    shadow.record(obj, j, grades[j])
            return aggregation.aggregate(grades)
        known = cache.setdefault(obj, {})
        known[seen_list] = seen_grade
        missing = [j for j in range(m) if j not in known]
        if missing:
            for j, grade in zip(
                missing, session.random_access_across(obj, missing)
            ):
                known[j] = grade
        if shadow is not None:
            for j in range(m):
                shadow.record(obj, j, known[j])
        return aggregation.aggregate(tuple(known[j] for j in range(m)))
