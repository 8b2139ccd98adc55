"""Candidate bookkeeping for the bound-based algorithms (NRA, CA,
Stream-Combine, the intermittent strawman).

Section 8 algorithms maintain, for every seen object ``R`` with known
fields ``S(R)``:

* ``W(R)`` -- the lower bound: unknown fields replaced by 0
  (Proposition 8.1), and
* ``B(R)`` -- the upper bound: unknown fields replaced by the current
  bottom values (Proposition 8.2).

Halting needs, per round: the current top-``k`` by ``W`` (ties broken by
``B``, per the paper's step 1), the value ``M_k`` (the k-th largest
``W``), and whether any *viable* object -- ``B(R) > M_k`` -- exists
outside the top-``k``.  Remark 8.7 observes a naive implementation
re-evaluates ``B`` for every candidate every round (``Omega(d^2 m)``
updates).  This store instead keeps two lazily-invalidated max-heaps:

``W``-heap
    keyed by the exact current ``W`` (pushed on every field discovery;
    stale versions dropped on pop).
``B``-heap
    keyed by a *cached* ``B``, computed when the entry was pushed.  Since
    bottoms only decrease, a cached ``B`` upper-bounds the fresh value,
    so the heap top bounds the best possible ``B``; popped entries are
    re-validated lazily.  Crucially, ``M_k`` is non-decreasing (``W``
    values only grow and the candidate set only widens) while every
    object's ``B`` is non-increasing, so a candidate whose fresh
    ``B <= M_k`` can be *discarded permanently* -- it can never become
    viable again.  This prune is what keeps per-round work near
    ``O((k + new fields) log N)`` instead of ``O(candidates)``.

``naive`` mode disables the heaps and rescans everything per check, both
as a correctness oracle for the tests and for the Remark 8.7 ablation
benchmark.

The chunked execution engines use :class:`ArrayCandidateStore` below
(see :mod:`repro.core.nra`, :mod:`repro.core.ca` and
:mod:`repro.core.stream_combine` for the engines themselves).  It keeps
the ``W``-heap but replaces the ``B``-heap with one vectorised
*candidate pool*: the seen rows in discovery order with cached ``B``
values, pruned by the same permanent discard and scanned in blocks with
``aggregate_batch``.  Two more members keep the two stores' decisions
identical:

``current_mk``
    the exact value ``M_k`` (the k-th largest ``W``), maintained
    incrementally in O(log k) per ``W`` update.  ``M_k`` as a *value*
    is tie-independent even though the *membership* of ``T_k`` is not,
    so the chunked NRA/CA loops use it to gate the per-round halting
    check: while ``t(bottoms) > M_k`` (and unseen objects remain)
    halting is impossible and neither ``current_topk`` nor the viability
    scan needs to run.  The multiset of the k largest ``W`` values is
    preserved by every update (``W`` never decreases), which makes the
    lazy min-heap below exact, not heuristic.

``_discovery``
    the order of first sorted appearance per seen object, used by
    :meth:`CandidateStore.best_random_access_target` to break ``B``
    ties *canonically*.  Heap pop order is an accident of cached values
    and refresh history (e.g. which halting checks ran), so it must not
    decide which object CA random-accesses; discovery order is a
    property of the database alone, identical across backends and
    bookkeeping modes (the pool's row order is the same order).
"""

from __future__ import annotations

import heapq
from typing import Hashable

import numpy as np

from ..aggregation.base import AggregationFunction

__all__ = ["CandidateStore", "ArrayCandidateStore"]


class CandidateStore:
    """Lower/upper-bound bookkeeping over the seen objects."""

    def __init__(
        self,
        aggregation: AggregationFunction,
        m: int,
        k: int,
        naive: bool = False,
    ):
        self.t = aggregation
        self.m = m
        self.k = k
        self.naive = naive
        self.bottoms = [1.0] * m
        self.fields: dict[Hashable, dict[int, float]] = {}
        self.w: dict[Hashable, float] = {}
        self._version: dict[Hashable, int] = {}
        self._w_heap: list[tuple[float, int, Hashable, int]] = []
        self._b_heap: list[tuple[float, int, Hashable, int]] = []
        self._seq = 0
        self._never_viable: set[Hashable] = set()
        #: discovery index per seen object (order of first sorted
        #: appearance).  Canonical tie-break key for
        #: :meth:`best_random_access_target`; identical across backends
        #: because both consume sorted entries in the same order.
        self._discovery: dict[Hashable, int] = {}
        #: number of B evaluations performed (for the bookkeeping
        #: ablation).  NOTE: backend-dependent by design -- the columnar
        #: engines' M_k gate, witness shortcut, and candidate-pool scans
        #: legitimately evaluate other bounds than the scalar loop, so
        #: compare this metric only between runs on the same backend
        #: (results and AccessStats are backend-identical; this internal
        #: work counter is not).
        self.b_evaluations = 0
        # incremental M_k: lazy min-heap over the k largest W values
        self._mk_heap: list[tuple[float, int, Hashable]] = []
        self._mk_members: dict[Hashable, float] = {}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_bottom(self, list_index: int, grade: float) -> None:
        self.bottoms[list_index] = grade

    def record(self, obj: Hashable, list_index: int, grade: float) -> bool:
        """Record a discovered field; returns True if it was new."""
        known = self.fields.setdefault(obj, {})
        if list_index in known:
            return False
        if not known:
            self._discovery[obj] = len(self._discovery)
        known[list_index] = grade
        self.w[obj] = self.t.worst_case(known, self.m)
        version = self._version.get(obj, 0) + 1
        self._version[obj] = version
        if not self.naive:
            self._seq += 1
            heapq.heappush(
                self._w_heap, (-self.w[obj], self._seq, obj, version)
            )
            self._seq += 1
            heapq.heappush(
                self._b_heap, (-self.b_value(obj), self._seq, obj, version)
            )
            self._mk_note(obj, self.w[obj])
        return True

    # ------------------------------------------------------------------
    # incremental M_k (k-th largest W; see module docstring)
    # ------------------------------------------------------------------
    def _mk_note(self, obj: Hashable, w: float) -> None:
        members = self._mk_members
        current = members.get(obj)
        if current is not None:
            if w != current:
                members[obj] = w
                self._seq += 1
                heapq.heappush(self._mk_heap, (w, self._seq, obj))
        elif len(members) < self.k:
            members[obj] = w
            self._seq += 1
            heapq.heappush(self._mk_heap, (w, self._seq, obj))
        else:
            floor = self._mk_clean()
            if w > floor:
                _, _, evicted = heapq.heappop(self._mk_heap)
                del members[evicted]
                members[obj] = w
                self._seq += 1
                heapq.heappush(self._mk_heap, (w, self._seq, obj))

    def _mk_clean(self) -> float:
        """Drop stale heap roots; return the current smallest member W."""
        heap = self._mk_heap
        members = self._mk_members
        while heap:
            w, _, obj = heap[0]
            if members.get(obj) == w:
                return w
            heapq.heappop(heap)
        return float("-inf")

    def current_mk(self) -> float:
        """``M_k``, the k-th largest ``W`` over all seen objects
        (``-inf`` while fewer than ``k`` objects have been seen).

        Identical to the ``m_k`` returned by :meth:`current_topk` -- the
        value is tie-independent -- but O(log k) amortised instead of
        O(k log N) per call, so the batched loops use it to gate the
        full halting check.
        """
        if len(self._mk_members) < self.k:
            return float("-inf")
        return self._mk_clean()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def seen_count(self) -> int:
        return len(self.fields)

    @property
    def threshold(self) -> float:
        """``t(bottoms)`` -- the (virtual) ``B`` of any unseen object."""
        return self.t.threshold(self.bottoms)

    def b_value(self, obj: Hashable) -> float:
        """Fresh upper bound ``B(obj)`` under the current bottoms."""
        self.b_evaluations += 1
        return self.t.best_case(self.fields[obj], self.bottoms)

    def fully_known(self, obj: Hashable) -> bool:
        return len(self.fields[obj]) == self.m

    def exact_grade(self, obj: Hashable) -> float | None:
        """``t(obj)`` if every field is known, else ``None``."""
        if self.fully_known(obj):
            return self.w[obj]
        return None

    # ------------------------------------------------------------------
    # the per-round halting queries
    # ------------------------------------------------------------------
    def current_topk(self) -> tuple[list[Hashable], float]:
        """The current top-``k`` list ``T_k`` (by ``W``, ties by fresh
        ``B``) and ``M_k``, the k-th largest ``W``.

        When fewer than ``k`` objects have been seen, returns all of them
        with ``M_k = -inf``.
        """
        if self.naive:
            return self._current_topk_naive()
        k = self.k
        popped: list[tuple[float, int, Hashable, int]] = []
        valid: list[tuple[float, int, Hashable, int]] = []
        chosen_objs: set[Hashable] = set()
        while self._w_heap:
            entry = heapq.heappop(self._w_heap)
            neg_w, _, obj, version = entry
            if version != self._version.get(obj) or obj in chosen_objs:
                continue  # stale; drop forever
            chosen_objs.add(obj)
            valid.append(entry)
            popped.append(entry)
            if len(valid) == k:
                cutoff = -neg_w
                # pull in boundary ties (equal W) for B-based tie-breaking
                while self._w_heap and -self._w_heap[0][0] >= cutoff:
                    tie = heapq.heappop(self._w_heap)
                    if (
                        tie[3] != self._version.get(tie[2])
                        or tie[2] in chosen_objs
                    ):
                        continue
                    chosen_objs.add(tie[2])
                    valid.append(tie)
                    popped.append(tie)
                break
        for entry in popped:
            heapq.heappush(self._w_heap, entry)
        if len(valid) <= k:
            objs = [e[2] for e in valid]
            m_k = -valid[-1][0] if len(valid) == k else float("-inf")
            return objs, m_k
        cutoff = -valid[k - 1][0]
        sure = [e[2] for e in valid if -e[0] > cutoff]
        boundary = [e[2] for e in valid if -e[0] == cutoff]
        boundary.sort(key=lambda o: -self.b_value(o))
        return sure + boundary[: k - len(sure)], cutoff

    def _current_topk_naive(self) -> tuple[list[Hashable], float]:
        ranked = sorted(
            self.w, key=lambda o: (-self.w[o], -self.b_value(o))
        )
        chosen = ranked[: self.k]
        if len(chosen) < self.k:
            return chosen, float("-inf")
        return chosen, self.w[chosen[-1]]

    def find_viable_outside(
        self, topk: list[Hashable], m_k: float
    ) -> tuple[Hashable, float] | None:
        """Some seen object outside ``topk`` with fresh ``B > M_k``, or
        ``None`` (then halting condition (b) holds for seen objects).

        Permanently discards candidates whose fresh ``B <= M_k`` (see the
        module docstring for why that is sound).
        """
        if self.naive:
            topk_set = set(topk)
            for obj in self.fields:
                if obj in topk_set:
                    continue
                b = self.b_value(obj)
                if b > m_k:
                    return obj, b
            return None
        topk_set = set(topk)
        pushback: list[tuple[float, int, Hashable, int]] = []
        found: tuple[Hashable, float] | None = None
        while self._b_heap:
            neg_b, _, obj, version = self._b_heap[0]
            if version != self._version.get(obj) or obj in self._never_viable:
                heapq.heappop(self._b_heap)
                continue
            if -neg_b <= m_k:
                # cached B upper-bounds fresh B for every remaining entry
                break
            entry = heapq.heappop(self._b_heap)
            fresh = self.b_value(obj)
            if fresh <= m_k:
                self._never_viable.add(obj)
                continue
            self._seq += 1
            refreshed = (-fresh, self._seq, obj, version)
            if obj in topk_set:
                pushback.append(refreshed)
                continue
            found = (obj, fresh)
            pushback.append(refreshed)
            break
        for entry in pushback:
            heapq.heappush(self._b_heap, entry)
        return found

    def best_random_access_target(self, m_k: float) -> Hashable | None:
        """CA's step 2: the viable seen object with missing fields whose
        fresh ``B`` is largest; ``None`` triggers the escape clause.

        Viability here is over *all* seen objects (the paper does not
        exclude the current top-``k``: its members usually have missing
        fields and the largest ``B`` values).  The paper breaks ``B``
        ties arbitrarily; this store breaks them *canonically*, by
        earliest discovery (first sorted appearance, see
        :attr:`_discovery`).  Canonical matters: the chosen target
        decides which random accesses are charged, so the choice must
        not depend on incidental heap arrangement -- the naive oracle,
        the lazy scalar loop, and the chunked engines (whose
        witness-gated halting checks legitimately skip some of the
        ``find_viable_outside`` calls that refresh cached heap entries)
        must all pick the same object.
        """
        if self.naive:
            # first strict maximum in fields-iteration (= discovery) order
            best_obj, best_b = None, m_k
            for obj in self.fields:
                if self.fully_known(obj):
                    continue
                b = self.b_value(obj)
                if b > best_b:
                    best_obj, best_b = obj, b
            return best_obj
        pushback: list[tuple[float, int, Hashable, int]] = []
        best: tuple[float, int, Hashable] | None = None
        while self._b_heap:
            neg_b, _, obj, version = self._b_heap[0]
            if version != self._version.get(obj) or obj in self._never_viable:
                heapq.heappop(self._b_heap)
                continue
            cached = -neg_b
            # strict <: candidates tied with the current best at
            # cached == fresh == best must still be examined
            if cached <= m_k or (best is not None and cached < best[0]):
                break
            heapq.heappop(self._b_heap)
            fresh = self.b_value(obj)
            if fresh <= m_k:
                self._never_viable.add(obj)
                continue
            self._seq += 1
            pushback.append((-fresh, self._seq, obj, version))
            if self.fully_known(obj):
                continue
            d = self._discovery[obj]
            if (
                best is None
                or fresh > best[0]
                or (fresh == best[0] and d < best[1])
            ):
                best = (fresh, d, obj)
        for entry in pushback:
            heapq.heappush(self._b_heap, entry)
        return best[2] if best is not None else None


#: pool positions per evaluation block of the candidate-pool scans
_POOL_BLOCK = 256


class ArrayCandidateStore(CandidateStore):
    """Row-keyed, array-backed candidate store for the chunked engines
    of NRA, CA and Stream-Combine.

    Candidates are row indices into an ``(N, m)`` float64 field matrix
    (NaN = unknown) that the engines fill with one vectorised scatter per
    chunk instead of per-entry dict updates.  The ``W`` side is the
    scalar store's, fed through :meth:`note_w`: the ``W``-heap,
    :meth:`current_topk` and the incremental ``M_k`` tracker touch
    candidates only through ``b_value``.  ``fields`` dicts,
    ``_discovery`` and the ``B``-heap are *not* maintained.

    Upper bounds live in one *candidate pool* instead: the seen rows in
    discovery order (``pool_rows``, joined by :meth:`join` at their first
    sorted appearance), each with a cached ``B`` (``pool_b``) -- the
    bound of that first entry, overwritten whenever a scan evaluates the
    row afresh.  Bottoms only fall and a known field is at most the
    bottom it replaced, so a cached ``B`` is never below the row's fresh
    ``B``; the cutoffs the scans are given never fall either (``M_k``
    only grows), so a row whose bound is at or below the cutoff is
    dropped from the pool for good -- the scalar store's
    ``_never_viable`` discard, vectorised.  Both viability queries read
    the pool and evaluate fresh ``B`` with one ``aggregate_batch`` per
    block of the highest cached bounds: :meth:`find_viable_outside` (the
    halting check) and :meth:`best_random_access_target` (CA's phase
    target, where discovery order makes "first row among the maxima"
    the canonical tie-break).

    :meth:`resolve_row_fields` serves CA's random-access phase: it
    replays, against the field matrix, the exact per-field ``record``
    sequence the scalar loop performs when it resolves the chosen
    target (intermediate ``W`` recomputations, version bumps, ``W``-heap
    pushes, ``M_k`` notes), so every later ``T_k`` decision is
    order-identical to the scalar run.
    """

    def __init__(
        self,
        aggregation: AggregationFunction,
        m: int,
        k: int,
        num_rows: int,
    ):
        super().__init__(aggregation, m, k, naive=False)
        self.field_matrix = np.full((num_rows, m), np.nan, dtype=np.float64)
        self.seen_count_value = 0
        self.pool_rows = np.empty(0, dtype=np.intp)
        self.pool_b = np.empty(0, dtype=np.float64)

    @property
    def seen_count(self) -> int:
        return self.seen_count_value

    def b_value(self, row) -> float:
        """Fresh ``B`` from the field matrix (bitwise equal to the dict
        store's ``best_case`` substitution)."""
        self.b_evaluations += 1
        bottoms = self.bottoms
        vec = self.field_matrix[row].tolist()
        return self.t.aggregate(
            tuple(
                bottoms[j] if g != g else g  # NaN check via g != g
                for j, g in enumerate(vec)
            )
        )

    def fully_known(self, row) -> bool:
        vec = self.field_matrix[row]
        return not np.isnan(vec).any()

    def exact_grade(self, row) -> float | None:
        if self.fully_known(row):
            return self.w[row]
        return None

    def note_w(self, row, w: float) -> None:
        """Record ``row``'s new lower bound ``w``: the ``W`` half of the
        scalar ``record`` (version bump, ``W``-heap push, ``M_k``
        note)."""
        version = self._version.get(row, 0) + 1
        self._version[row] = version
        self.w[row] = w
        self._seq += 1
        heapq.heappush(self._w_heap, (-w, self._seq, row, version))
        self._mk_note(row, w)

    # ------------------------------------------------------------------
    # the candidate pool
    # ------------------------------------------------------------------
    def join(self, rows: np.ndarray, bounds: np.ndarray) -> None:
        """Append newly seen ``rows`` (in discovery order) to the pool,
        with the cached ``B`` of each one's first sorted entry."""
        self.pool_rows = np.concatenate((self.pool_rows, rows))
        self.pool_b = np.concatenate((self.pool_b, bounds))

    def _prune(self, cutoff: float) -> None:
        keep = self.pool_b > cutoff
        if not keep.all():
            self.pool_rows = self.pool_rows[keep]
            self.pool_b = self.pool_b[keep]

    def _highest(self, idxs: np.ndarray) -> tuple[np.ndarray, float]:
        """The (at most ``_POOL_BLOCK``) pool positions among ``idxs``
        with the highest cached bounds, and the pivot: the block's
        lowest cached bound, which no position left out exceeds
        (``-inf`` when none is left out)."""
        if idxs.size <= _POOL_BLOCK:
            return idxs, -np.inf
        cut = idxs.size - _POOL_BLOCK
        part = np.argpartition(self.pool_b[idxs], cut)
        return idxs[part[cut:]], self.pool_b[idxs[part[cut]]]

    def _evaluate(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``B`` of the pool positions ``idxs`` under the current
        bottoms (stored back as their cached bounds), and which of them
        still miss a field."""
        # column-major block: one contiguous row per list, so the
        # bottoms fill and the missing test run along the lists' columns
        sub = self.field_matrix.take(self.pool_rows[idxs], axis=0).T.copy()
        unknown = np.isnan(sub)
        bottoms_col = np.asarray(self.bottoms, dtype=np.float64)[:, None]
        np.copyto(sub, bottoms_col, where=unknown)
        fresh = self.t.aggregate_batch(sub.T)
        self.b_evaluations += idxs.size
        self.pool_b[idxs] = fresh
        return fresh, np.logical_or.reduce(unknown, axis=0)

    def _viable_in(
        self, idxs: np.ndarray, topk_set: set, m_k: float
    ) -> tuple | None:
        """The earliest-discovered row among the ascending pool
        positions ``idxs`` that lies outside ``topk_set`` with fresh
        ``B > m_k``, or ``None``."""
        fresh, _ = self._evaluate(idxs)
        # at most len(topk) + 1 steps
        for j in np.nonzero(fresh > m_k)[0].tolist():
            row = int(self.pool_rows[idxs[j]])
            if row not in topk_set:
                return row, float(fresh[j])
        return None

    def find_viable_outside(
        self, topk: list, m_k: float
    ) -> tuple | None:
        """A pool row outside ``topk`` with fresh ``B > m_k``, or
        ``None``.

        ``None`` comes back exactly when the scalar store's heap scan
        returns ``None``: rows are dropped only once a bound at or below
        ``m_k`` proves they can never be viable again, and every other
        row is evaluated before ``None`` is returned.  The block of the
        highest cached bounds goes first (a viable row is usually among
        them); when it holds none outside ``topk``, the rest is
        evaluated in one call.

        Which row comes back only decides which of the engines' later
        halting checks a standing witness lets them skip.  It is the
        earliest-discovered one of its block: the highest bounds are
        exactly the rows CA's phases resolve next, and a resolved
        witness proves nothing, while an early row with a high bound
        stays viable for long in NRA and Stream-Combine too.
        """
        self._prune(m_k)
        size = self.pool_b.size
        if not size:
            return None
        topk_set = set(topk)
        block, _ = self._highest(np.arange(size))
        block.sort()
        found = self._viable_in(block, topk_set, m_k)
        if found is None and block.size < size:
            rest = np.ones(size, dtype=bool)
            rest[block] = False
            found = self._viable_in(np.nonzero(rest)[0], topk_set, m_k)
        return found

    def best_random_access_target(self, m_k: float):
        """CA's phase target read from the pool: the same candidate set
        (seen, missing fields, fresh ``B > m_k``) and the same canonical
        choice (largest fresh ``B``, earliest discovery among ties) as
        :meth:`CandidateStore.best_random_access_target`.  Blocks of the
        highest cached bounds are evaluated until no unevaluated bound
        can reach the best fresh one found -- the lazy-heap scan,
        vectorised."""
        self._prune(m_k)
        size = self.pool_b.size
        evaluated = np.zeros(size, dtype=bool)
        has_missing = np.zeros(size, dtype=bool)
        best_b = m_k
        idxs = np.arange(size)
        while idxs.size:
            idxs, pivot = self._highest(idxs)
            fresh, missing = self._evaluate(idxs)
            evaluated[idxs] = True
            has_missing[idxs] = missing
            best_b = max(best_b, fresh[missing].max(initial=-np.inf))
            if pivot < best_b:
                break
            idxs = np.nonzero(~evaluated & (self.pool_b >= best_b))[0]
        if not best_b > m_k:
            return None
        # unevaluated rows' cached bounds are below best_b, and
        # has_missing marks evaluated rows only
        first = np.nonzero(has_missing & (self.pool_b == best_b))[0][0]
        return int(self.pool_rows[first])

    def resolve_row_fields(
        self, row, list_indices: list[int], grades: list[float]
    ) -> None:
        """Record random-access resolutions of ``row``'s missing fields.

        Bit-for-bit equivalent to the ``W`` side of the scalar loop's
        per-field ``record(row, i, grade)`` calls: after each field the
        lower bound ``W`` is recomputed (0-substitution in argument
        order) and noted (:meth:`note_w`), so ``W``-heap order in later
        halting checks matches the scalar run exactly.  The row's pool
        bound needs no update: it only falls.
        """
        matrix = self.field_matrix
        aggregate = self.t.aggregate
        for i, g in zip(list_indices, grades):
            matrix[row, i] = g
            vec = matrix[row].tolist()
            self.note_w(
                row, aggregate(tuple(0.0 if x != x else x for x in vec))
            )
