"""Shared chunk assembly for the speculative columnar engines.

The chunked engines (TA's ``_execute_columnar``, the bound engine NRA
and CA share, and Stream-Combine's) speculate the next
``chunk_rounds`` rounds' worth of sorted entries through the uncharged
columnar view.  The delicate conventions live here, once:

* entries are ordered exactly as the scalar loops consume them -- a
  stable sort by (round, list index), with within-list slice order
  preserved (``np.lexsort`` is stable);
* list ``i`` contributes ``batches[i]`` entries per round (entry ``e``
  of a list belongs to round ``e // batches[i]``), thinning out as the
  list nears exhaustion but never producing an empty round before
  ``c_eff``;
* the per-round bottoms matrix carries each list's last seen grade past
  its exhaustion (and the caller's current bottom before the list's
  first entry), so row ``r`` is exactly the scalar loop's bottom vector
  after round ``r``.

The engines must charge whatever prefix of the chunk they consume via
the session's batched access methods; only :meth:`ChunkReplay.commit`
touches accounting, with one
:meth:`~repro.middleware.access.AccessSession.charge_schedule` call.

The bound-based engines (NRA/CA and Stream-Combine) run lockstep over
every list, one entry per list per round, and share one driver for it:
:class:`LockstepChunks` owns the view's order arrays, the per-list
positions, the chunk-growth policy and the lockstep
:func:`assemble_sorted_chunk` call, and yields one :class:`ChunkReplay`
per chunk until the session's budget expires or every list is
exhausted.  TA keeps its own loop (list subsets, batch sizes and a
larger cap).

Besides assembly, this module holds the per-entry derivations the
bound-based engines share: the mid-round bottom vectors each entry's
cached ``B`` must see (:func:`entry_bottoms`), the cumulative
known-field rows feeding the vectorised ``W``/``B`` computations
(:func:`known_rows`), the index of each round's last entry
(:func:`round_last_entries`), and the entries at which objects new to
the run first appear (:func:`first_new_entries`: the running seen
counts and the candidate pool's joins).  Each mirrors, vectorised,
exactly what the scalar reference loops observe entry by entry -- the
bit-for-bit differential tests depend on that.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import ArrayCandidateStore

__all__ = [
    "SortedChunk",
    "assemble_sorted_chunk",
    "entry_bottoms",
    "known_rows",
    "round_last_entries",
    "first_new_entries",
    "witness_trajectory",
    "ChunkWitness",
    "ChunkReplay",
    "LockstepChunks",
]


@dataclass
class SortedChunk:
    """One speculated run of lockstep rounds, in scalar consumption
    order."""

    #: entries available per list (aligned with the caller's list set)
    counts: list[int]
    #: backing row index per entry
    rows: np.ndarray
    #: grade per entry
    grades: np.ndarray
    #: round index per entry (non-decreasing)
    rounds: np.ndarray
    #: source list index per entry
    lists: np.ndarray
    #: number of entries
    total: int
    #: number of rounds present (max round index + 1)
    c_eff: int
    #: ``(c_eff, m)`` bottoms after each round, exhaustion-carried
    bottoms_matrix: np.ndarray

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """``(group, starts)``: the entries ordered by ``(row, entry)``,
        and whether ``group[j]`` is its object's first in the chunk."""
        group = np.argsort(self.rows, kind="stable")
        grouped_rows = self.rows[group]
        starts = np.ones(self.total, dtype=bool)
        starts[1:] = grouped_rows[1:] != grouped_rows[:-1]
        return group, starts

    def consumed_upto(self, consumed_rounds: int) -> int:
        """Number of entries in rounds ``< consumed_rounds``."""
        if consumed_rounds >= self.c_eff:
            return self.total
        return int(
            np.searchsorted(self.rounds, consumed_rounds, side="left")
        )


def assemble_sorted_chunk(
    order_rows: Sequence[np.ndarray],
    order_grades: Sequence[np.ndarray],
    positions: Sequence[int],
    sorted_lists: Sequence[int],
    batches: Sequence[int],
    chunk_rounds: int,
    num_objects: int,
    m: int,
    bottoms: Sequence[float],
) -> SortedChunk | None:
    """Slice the next ``chunk_rounds`` rounds from the columnar view.

    Returns ``None`` when every list in ``sorted_lists`` is already
    exhausted (the zero-progress round).
    """
    counts: list[int] = []
    rows_parts: list[np.ndarray] = []
    grade_parts: list[np.ndarray] = []
    round_parts: list[np.ndarray] = []
    list_parts: list[np.ndarray] = []
    for idx, i in enumerate(sorted_lists):
        b = batches[idx]
        c = min(chunk_rounds * b, num_objects - positions[i])
        counts.append(c)
        if c == 0:
            continue
        pos = positions[i]
        rows_parts.append(order_rows[i][pos : pos + c])
        grade_parts.append(order_grades[i][pos : pos + c])
        round_parts.append(np.arange(c, dtype=np.intp) // b)
        list_parts.append(np.full(c, i, dtype=np.intp))
    if not rows_parts:
        return None
    rows_all = np.concatenate(rows_parts)
    grades_all = np.concatenate(grade_parts)
    rounds_all = np.concatenate(round_parts)
    lists_all = np.concatenate(list_parts)
    if len(rows_parts) > 1:
        # stable: primary key round, secondary key list index -- the
        # scalar loops' exact consumption order
        order = np.lexsort((lists_all, rounds_all))
        rows_all = rows_all[order]
        grades_all = grades_all[order]
        rounds_all = rounds_all[order]
        lists_all = lists_all[order]
    c_eff = int(rounds_all[-1]) + 1
    bott = np.empty((c_eff, m), dtype=np.float64)
    for j in range(m):
        bott[:, j] = bottoms[j]
    part = 0
    for idx, i in enumerate(sorted_lists):
        c = counts[idx]
        if c == 0:
            continue
        b = batches[idx]
        idxs = np.minimum((np.arange(c_eff, dtype=np.intp) + 1) * b, c) - 1
        bott[:, i] = grade_parts[part][idxs]
        part += 1
    return SortedChunk(
        counts=counts,
        rows=rows_all,
        grades=grades_all,
        rounds=rounds_all,
        lists=lists_all,
        total=rows_all.shape[0],
        c_eff=c_eff,
        bottoms_matrix=bott,
    )


def round_last_entries(chunk: SortedChunk) -> np.ndarray:
    """Index of the last entry of each round ``r`` (rounds may thin out
    near the end of a list, but never vanish before ``c_eff``)."""
    return (
        np.searchsorted(
            chunk.rounds, np.arange(1, chunk.c_eff + 1, dtype=np.intp)
        )
        - 1
    )


def entry_bottoms(
    chunk: SortedChunk, bottoms: Sequence[float], m: int
) -> np.ndarray:
    """``(total, m)`` matrix: row ``e`` is the bottom vector the scalar
    loop holds immediately after consuming entry ``e`` -- the exact
    mid-round bottoms a cached ``B`` pushed at that point would see.

    Column ``j`` carries the grade of list ``j``'s most recent entry at
    or before ``e`` (the caller's current ``bottoms[j]`` before the
    list's first entry of the chunk).
    """
    total = chunk.total
    lists_all = chunk.lists
    grades_all = chunk.grades
    entry_range = np.arange(total, dtype=np.intp)
    out = np.empty((total, m), dtype=np.float64)
    for j in range(m):
        ej = np.nonzero(lists_all == j)[0]
        if ej.size == 0:
            out[:, j] = bottoms[j]
            continue
        ff = np.searchsorted(ej, entry_range, side="right")
        col = grades_all[ej[np.maximum(ff - 1, 0)]]
        out[:, j] = np.where(ff == 0, bottoms[j], col)
    return out


def known_rows(chunk: SortedChunk, field_matrix: np.ndarray) -> np.ndarray:
    """``(total, m)`` matrix: row ``e`` is entry ``e``'s object's known
    fields *just after* recording entry ``e`` (NaN = unknown).

    Starts from the chunk-start state in ``field_matrix`` plus each
    entry's own field, then overlays, in consumption order, the earlier
    in-chunk discoveries of objects that appear more than once in the
    chunk.  ``field_matrix`` is read, never written.
    """
    entry_range = np.arange(chunk.total, dtype=np.intp)
    k_matrix = field_matrix[chunk.rows]
    k_matrix[entry_range, chunk.lists] = chunk.grades
    group, starts = chunk.groups
    if starts.all():
        return k_matrix
    # forward-fill every column along each object's entries, in
    # consumption order: an entry's known fields are the chunk-start
    # ones plus those of its object's earlier entries in the chunk
    grouped = k_matrix[group]
    source = np.where(
        ~np.isnan(grouped) | starts[:, None], entry_range[:, None], 0
    )
    np.maximum.accumulate(source, axis=0, out=source)
    k_matrix[group] = np.take_along_axis(grouped, source, axis=0)
    return k_matrix


def first_new_entries(
    chunk: SortedChunk, seen_rows: np.ndarray
) -> np.ndarray:
    """Ascending entry indices at which an object *new to this run*
    makes its first appearance (``seen_rows`` marks rows seen in earlier
    chunks).  The order is the scalar loop's discovery order."""
    group, starts = chunk.groups
    first_in_chunk = np.zeros(chunk.total, dtype=bool)
    first_in_chunk[group[starts]] = True
    return np.nonzero(first_in_chunk & ~seen_rows[chunk.rows])[0]


def witness_trajectory(
    aggregation, bottoms_matrix: np.ndarray, field_row: np.ndarray
) -> list[float]:
    """Per round ``r``: the viability witness's fresh upper bound ``B``
    under round ``r``'s bottoms -- ``bottoms_matrix`` rows with the
    witness's known fields (non-NaN entries of ``field_row``)
    substituted in.  Valid until the witness gains a field; the engines
    invalidate at its gain rounds (see :class:`ChunkWitness`)."""
    wit_rows = bottoms_matrix.copy()
    for j, g in enumerate(field_row.tolist()):
        if g == g:  # NaN check
            wit_rows[:, j] = g
    return aggregation.aggregate_batch(wit_rows).tolist()


class ChunkWitness:
    """Per-chunk bookkeeping for one viability witness.

    A witness skips a halting check only while its upper bound ``B``
    still clears the cutoff, and its cached per-round ``B`` trajectory
    is valid only until the witness gains a field.  This object owns
    the delicate part all three witness-gated engines (NRA, CA,
    Stream-Combine) share: the witness's in-chunk gain rounds and the
    trajectory invalidation at them.  The engine-specific standing
    predicates (``W < M_k`` for NRA/CA, not-fully-seen for
    Stream-Combine) and the witness's *retirement* (falling at a check,
    being resolved by a CA phase, completing in Stream-Combine) stay in
    the engines.
    """

    __slots__ = ("row", "_gains", "_ptr", "_trajectory")

    def __init__(self, row, chunk: SortedChunk, after_round: int = -1):
        """Track ``row`` through ``chunk``; with ``after_round >= 0``
        (a witness found mid-chunk at that round), gains at or before
        it are already reflected in the fields used for the first
        trajectory computation."""
        self.row = row
        self._gains: list[int] = chunk.rounds[
            np.nonzero(chunk.rows == row)[0]
        ].tolist()
        self._ptr = (
            int(np.searchsorted(self._gains, after_round, side="right"))
            if after_round >= 0
            else 0
        )
        self._trajectory: list[float] | None = None

    def bound_at(self, r: int, compute) -> float:
        """The witness's ``B`` after round ``r``; ``compute(r)`` builds
        the trajectory (via :func:`witness_trajectory`, after syncing
        fields to round ``r``) when no valid cache exists."""
        gains = self._gains
        ptr = self._ptr
        while ptr < len(gains) and gains[ptr] <= r:
            self._trajectory = None
            ptr += 1
        self._ptr = ptr
        if self._trajectory is None:
            self._trajectory = compute(r)
        return self._trajectory[r]


class ChunkReplay:
    """One chunk's derived state and commit bookkeeping, shared by the
    bound-based chunked engines (NRA/CA and Stream-Combine).

    Owns, once, the per-chunk scaffolding the replays share: the
    vectorised derivations (per-entry ``W`` and cached ``B``, per-round
    thresholds and bottoms, the cumulative new-seen counts), the lazy
    sync of the store to a round (field matrix, bottoms, seen count and
    the candidate pool), the witness-bound trajectory plumbing, and the
    end-of-chunk commit with its one charging call.  Each engine keeps
    its own replay body -- which entries feed the ``W`` side, CA's
    random-access phases, the halting-check bodies.

    Replays come from :class:`LockstepChunks` (``sorted_lists =
    range(m)``, one entry per list per round), which is what
    :meth:`commit`'s charge assumes; TA's engine (arbitrary list subsets
    and batch sizes) keeps its own charging.
    """

    __slots__ = (
        "chunk",
        "aggregation",
        "field_matrix",
        "rows_all",
        "lists_all",
        "grades_all",
        "c_eff",
        "round_ends",
        "unknown",
        "w_arr",
        "b_arr",
        "bott",
        "tau_list",
        "new_entries",
        "seen_cum",
        "seen_base",
        "_store",
        "_seen_rows",
        "_positions",
        "_synced",
        "_joined",
    )

    def __init__(
        self,
        chunk: SortedChunk,
        aggregation,
        store: ArrayCandidateStore,
        seen_rows: np.ndarray,
        positions: list[int],
    ):
        self.chunk = chunk
        self.aggregation = aggregation
        self.field_matrix = store.field_matrix
        self.rows_all = chunk.rows
        self.lists_all = chunk.lists
        self.grades_all = chunk.grades
        self.c_eff = chunk.c_eff
        self.round_ends = round_last_entries(chunk)
        k_matrix = known_rows(chunk, self.field_matrix)
        self.unknown = np.isnan(k_matrix)
        self.w_arr = aggregation.aggregate_batch(
            np.where(self.unknown, 0.0, k_matrix)
        )
        self.bott = chunk.bottoms_matrix
        self.tau_list = aggregation.aggregate_batch(self.bott).tolist()
        self.b_arr = aggregation.aggregate_batch(
            np.where(
                self.unknown,
                entry_bottoms(chunk, store.bottoms, store.m),
                k_matrix,
            )
        )
        self.new_entries = first_new_entries(chunk, seen_rows)
        # per round r: objects new to the run seen at rounds <= r (plus
        # seen_base, the scalar loop's seen_count after round r)
        self.seen_cum = np.searchsorted(
            self.new_entries, self.round_ends, side="right"
        ).tolist()
        self.seen_base = int(store.seen_count_value)
        self._store = store
        self._seen_rows = seen_rows
        self._positions = positions
        self._synced = 0
        self._joined = 0

    def select(
        self, mask: np.ndarray
    ) -> tuple[list[int], list[int], list[float]]:
        """The entries ``mask`` picks for the sequential replay, as
        ``(starts, rows, ws)``: their rows and ``W`` values in
        consumption order, round ``r``'s being those at positions
        ``starts[r]`` up to ``starts[r + 1]``."""
        entries = np.nonzero(mask)[0]
        starts = np.searchsorted(
            self.chunk.rounds[entries],
            np.arange(self.c_eff + 1, dtype=np.intp),
        )
        return (
            starts.tolist(),
            self.rows_all[entries].tolist(),
            self.w_arr[entries].tolist(),
        )

    def sync_fields(self, upto: int) -> None:
        """Scatter entries ``< upto`` into the store's field matrix
        (idempotent per prefix; called lazily before any state read that
        needs fields current)."""
        if upto > self._synced:
            s = self._synced
            self.field_matrix[
                self.rows_all[s:upto], self.lists_all[s:upto]
            ] = self.grades_all[s:upto]
            self._synced = upto

    def sync_to(self, r: int) -> None:
        """Bring the store to its state after round ``r``: fields,
        bottoms, seen count and candidate pool, whose new rows join with
        their first entry's cached ``B`` (before a halting check or a CA
        phase reads the store; idempotent per prefix)."""
        self.sync_fields(self.round_ends[r] + 1)
        self._store.bottoms[:] = self.bott[r].tolist()
        upto_new = self.seen_cum[r]
        self._store.seen_count_value = self.seen_base + upto_new
        if upto_new > self._joined:
            entries = self.new_entries[self._joined : upto_new]
            self._store.join(self.rows_all[entries], self.b_arr[entries])
            self._joined = upto_new

    def carry(self, witness: ChunkWitness | None) -> ChunkWitness | None:
        """Re-anchor a witness carried over from an earlier chunk to
        this chunk's gain rounds (``None`` passes through)."""
        if witness is None:
            return None
        return ChunkWitness(witness.row, self.chunk)

    def witness_bound(self, witness: ChunkWitness, r: int) -> float:
        """The witness's fresh ``B`` after round ``r``, via its cached
        per-round trajectory (fields synced to round ``r`` first when
        the trajectory must be rebuilt)."""

        def compute(rr: int) -> list[float]:
            self.sync_fields(self.round_ends[rr] + 1)
            return witness_trajectory(
                self.aggregation, self.bott, self.field_matrix[witness.row]
            )

        return witness.bound_at(r, compute)

    def commit(self, session, consumed: int, phases=()) -> int:
        """End-of-chunk bookkeeping once the replay fixed the number of
        ``consumed`` rounds: the chunk's charges -- the consumed sorted
        prefix with CA's speculated random-access ``phases`` spliced in
        (see :meth:`~repro.middleware.access.AccessSession.charge_schedule`)
        -- and the driver's positions, then the store's state after the
        last consumed round (:meth:`sync_to`), the seen set and the
        per-entry ``b_evaluations`` accounting.  Returns the number of
        entries consumed."""
        counts = self.chunk.counts
        session.charge_schedule(counts, phases, consumed)
        positions = self._positions
        for i, c in enumerate(counts):
            positions[i] += min(consumed, c)
        upto = self.chunk.consumed_upto(consumed)
        self.sync_to(consumed - 1)
        self._seen_rows[self.rows_all[:upto]] = True
        self._store.b_evaluations += upto
        return upto


class LockstepChunks:
    """The lockstep chunk driver of the bound-based engines.

    Built over a batch-capable session, it holds the columnar view
    (``db``), a fresh :class:`~repro.core.bounds.ArrayCandidateStore`
    (``store``), the per-list positions and the rows seen so far.
    Iterating yields one :class:`ChunkReplay` per chunk of lockstep
    rounds -- 32 rounds first, doubling up to 2048 -- whose
    :meth:`ChunkReplay.commit` advances the positions.  Iteration stops
    at a chunk boundary when the session's budget has expired (checked
    first, once per boundary; :attr:`deadline` turns true) or when every
    list is exhausted; an engine that halts simply stops iterating.
    """

    def __init__(self, session, aggregation, k: int):
        self.db = session.columnar_view()
        n = self.db.num_objects
        m = session.num_lists
        self.store = ArrayCandidateStore(aggregation, m, k, n)
        #: true once iteration stopped because the budget expired
        self.deadline = False
        self._session = session
        self._aggregation = aggregation
        self._positions = [session.position(i) for i in range(m)]
        self._seen_rows = np.zeros(n, dtype=bool)

    def __iter__(self):
        session = self._session
        db = self.db
        n = db.num_objects
        store = self.store
        m = store.m
        positions = self._positions
        chunk_rounds = 32
        while True:
            if session.budget_exceeded:
                # chunk boundary: the store is committed and consistent
                self.deadline = True
                return
            if all(p >= n for p in positions):
                return
            chunk = assemble_sorted_chunk(
                db._order_rows,
                db._order_grades,
                positions,
                range(m),
                (1,) * m,
                chunk_rounds,
                n,
                m,
                store.bottoms,
            )
            yield ChunkReplay(
                chunk, self._aggregation, store, self._seen_rows, positions
            )
            chunk_rounds = min(chunk_rounds * 2, 2048)
