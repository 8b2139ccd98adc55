"""Mutable array backends: amendable sorted segments + live deltas.

Every other backend in the repro is build-once/read-only; this module
adds the mutation plane the paper's *standing* middleware setting needs
(grades change as sources re-rank, objects come and go).  The write API
is the :class:`MutableDatabase` contract -- ``insert`` /
``update_grade`` / ``delete`` / ``version`` -- and the storage design
is LSM-flavoured but exact:

* **Base segments.**  The sorted runs built at construction (one global
  stable-argsort run per list for the columnar backend, one run per
  shard per list for the sharded backend) become *amendable*: each
  keeps its arrays immutable but carries a per-list tombstone mask
  (``_stale``) marking entries that a later mutation superseded.
* **Delta segments.**  Each list additionally owns a small mutable
  segment (``_delta``: slot -> grade) holding inserted objects and the
  *current* grade of updated objects.  Sorting the delta by
  *(grade descending, slot ascending)* makes it one more run.
* **Exact merge.**  Sorted order is produced by handing the tombstone-
  filtered base runs plus the delta run to the existing
  :class:`~repro.middleware.database.ListMergeCursor` -- the same
  tie-key machinery the sharded backend uses -- so the global order
  stays *exact*, never approximate.  The tie key is the storage slot
  index, which is precisely the stable-argsort tie convention; hence
  the parity theorem below.
* **Compaction.**  When a list's overhead (tombstones + delta entries)
  crosses the configured threshold, :meth:`~MutableColumnarDatabase.
  compact` folds everything back into fresh base runs over a dense
  slot space (inserted slots join the last shard's range on the
  sharded backend).

**Parity.**  Filtering a slot-ordered-tie run preserves the relative
slot order of the surviving entries, and the slot -> compact-row remap
is monotone; therefore the merged *(grade desc, slot asc)* order over
the live entries is bit-identical to the stable argsort of the
compacted live matrix.  After *any* mutation sequence, every read --
``sorted_entry``, ``top_k``, the batched access plane, a full engine
run -- matches a from-scratch rebuild of the current contents exactly
(items, grades, tie order); the stateful hypothesis suite in
``tests/test_mutable_views.py`` enforces this.

Tie semantics: the mutable backends support the deterministic
stable-argsort tie convention only (ties ordered by storage slot, i.e.
insertion order).  Adversarial explicit tie placements (the
``from_columns`` constructions used by the paper's counterexamples)
are rejected at construction -- re-base them through a read-only
backend first.

Mutations invalidate any in-flight
:class:`~repro.middleware.access.AccessSession` over the database (the
grade matrix is updated in place); serialise mutations against running
queries, as :class:`~repro.server.service.QueryService` does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .database import (
    ColumnarDatabase,
    Database,
    ListMergeCursor,
    ObjectId,
    ShardedDatabase,
    _MergedOrders,
    _Run,
    _coerce_array_and_ids,
    shard_bounds_for,
)
from .errors import DatabaseError, UnknownObjectError

__all__ = [
    "MutationEvent",
    "MutableDatabase",
    "MutableColumnarDatabase",
    "MutableShardedDatabase",
]


@dataclass(frozen=True)
class MutationEvent:
    """One applied mutation, as delivered to listeners.

    ``grades`` is the object's full grade vector *after* the mutation
    (for a delete: the vector it had just before removal).
    ``list_index`` is set for ``update`` events only.  ``version`` is
    the database version the mutation produced.
    """

    kind: str  # "insert" | "update" | "delete"
    obj: ObjectId
    grades: tuple[float, ...]
    list_index: int | None
    version: int


class MutableDatabase(ABC):
    """The write plane of the database contract.

    The read plane is :class:`~repro.middleware.database.Database`
    (unchanged); a mutable backend implements both.  Every mutation
    increments :attr:`version` and notifies registered listeners with a
    :class:`MutationEvent` -- the hook :class:`~repro.views.LiveView`
    builds continuous top-k maintenance on.
    """

    _listeners: list[Callable[[MutationEvent], None]]

    @abstractmethod
    def insert(self, obj: ObjectId, grades: Sequence[float]) -> None:
        """Add a new object with the given ``m`` grades."""

    @abstractmethod
    def update_grade(
        self, obj: ObjectId, list_index: int, grade: float
    ) -> None:
        """Change one grade of an existing object."""

    @abstractmethod
    def delete(self, obj: ObjectId) -> None:
        """Remove an existing object from every list."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Monotone mutation counter (0 at construction)."""

    def add_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Register a callback invoked (synchronously) after every
        applied mutation."""
        self._listeners.append(listener)

    def remove_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Unregister a callback (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, event: MutationEvent) -> None:
        for listener in list(self._listeners):
            listener(event)


def _check_grade(value: float, what: str) -> float:
    grade = float(value)
    if not (0.0 <= grade <= 1.0):  # catches NaN too
        raise DatabaseError(f"{what} is {grade}, outside [0, 1]")
    return grade


class MutableColumnarDatabase(MutableDatabase, ColumnarDatabase):
    """The columnar backend with the mutation plane attached.

    Same read API, tie semantics and bit-for-bit results as
    :class:`~repro.middleware.database.ColumnarDatabase` over the
    current contents (see the module docstring for the storage design
    and the parity argument).

    Parameters
    ----------
    compact_min, compact_fraction:
        Auto-compaction threshold: a mutation triggers
        :meth:`compact` once some list's overhead (tombstoned base
        entries + delta entries) exceeds both ``compact_min`` and
        ``compact_fraction * num_objects``.  Pass
        ``auto_compact=False`` to compact manually only.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        ids: Sequence[ObjectId],
        order_rows: Sequence[np.ndarray] | None = None,
        validate: bool = True,
        *,
        compact_min: int = 64,
        compact_fraction: float = 0.5,
        auto_compact: bool = True,
    ):
        self._init_core(matrix, ids)
        # the identity id shortcut is unsound under mutation: a deleted
        # integer id would still pass the bounds check
        self._trivial_ids = False
        if validate:
            self._validate_core()
        self._compact_min = int(compact_min)
        self._compact_fraction = float(compact_fraction)
        self._auto_compact = bool(auto_compact)
        n = self._matrix.shape[0]
        # slot space: rows 0.. _n_slots-1 of _store; deleted slots stay
        # allocated (and tombstoned) until the next compaction
        self._store = self._matrix
        self._n_slots = n
        self._n_live = n
        self._live = np.ones(n, dtype=bool)
        self._stale = [np.zeros(n, dtype=bool) for _ in range(self._m)]
        self._stale_count = [0] * self._m
        self._delta: list[dict[int, float]] = [{} for _ in range(self._m)]
        self._merged: list[tuple[np.ndarray, np.ndarray] | None] = (
            [None] * self._m
        )
        self._version = 0
        self._listeners = []
        self._set_base(order_rows)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_database(
        cls, db: Database, **knobs
    ) -> "MutableColumnarDatabase":
        """A mutable copy of any database's current contents.

        Tie placement is re-based to the stable-argsort convention
        (mandatory for the mutation plane; adversarial explicit orders
        are rejected by the direct constructor)."""
        col = db.to_columnar()
        ids, matrix = col.to_array()
        return cls.from_array(matrix, ids, **knobs)

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
        **knobs,
    ) -> "MutableColumnarDatabase":
        """Build from an ``(N, m)`` grade array; deterministic stable
        ordering.  ``knobs`` are the compaction-policy keywords of the
        constructor (``compact_min`` etc.)."""
        array, ids = _coerce_array_and_ids(array, object_ids)
        return cls(array, ids, None, validate, **knobs)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[tuple[ObjectId, float]]],
        validate: bool = True,
        **knobs,
    ) -> "MutableColumnarDatabase":
        """Build from explicit per-list orderings.  The explicit tie
        placement must already follow the stable-argsort convention
        (ties in storage-row order): the mutation plane cannot
        represent any other placement, so adversarial orders raise
        :class:`~repro.middleware.errors.DatabaseError` here instead of
        silently drifting after the first mutation."""
        col = ColumnarDatabase.from_columns(columns, validate=validate)
        order_rows = [
            np.asarray(rows, dtype=np.intp).copy()
            for rows in col._order_rows
        ]
        return cls(
            col._matrix.copy(), list(col._ids), order_rows, validate, **knobs
        )

    # from_rows is inherited: it builds stable-argsort order arrays and
    # calls cls(matrix, ids, order_rows) directly

    # ------------------------------------------------------------------
    # base segments
    # ------------------------------------------------------------------
    def _set_base(
        self, order_rows: Sequence[np.ndarray] | None
    ) -> None:
        if order_rows is None:
            self._rebuild_base()
            return
        if len(order_rows) != self._m:
            raise DatabaseError(
                f"got {len(order_rows)} order arrays for m={self._m}"
            )
        base: list[list[_Run]] = []
        for i, rows in enumerate(order_rows):
            rows = np.asarray(rows, dtype=np.intp)
            grades = self._matrix[rows, i]
            if (grades[1:] > grades[:-1] + 1e-15).any():
                raise DatabaseError(f"list {i} is not sorted descending")
            tied = grades[1:] == grades[:-1]
            if (rows[1:][tied] <= rows[:-1][tied]).any():
                raise DatabaseError(
                    f"list {i}: the mutable backends require the "
                    "stable-argsort tie convention (ties in row order); "
                    "re-base adversarial orders through a read-only "
                    "backend"
                )
            base.append([(rows, grades, rows.astype(np.int64))])
        self._base = base

    def _rebuild_base(self) -> None:
        """Fresh base runs over the (dense, fully live) slot space."""
        matrix = self._matrix
        base: list[list[_Run]] = []
        for i in range(self._m):
            rows = np.argsort(-matrix[:, i], kind="stable").astype(np.intp)
            base.append([(rows, matrix[rows, i], rows.astype(np.int64))])
        self._base = base

    # ------------------------------------------------------------------
    # the segment merge (base runs, tombstone-filtered, + delta run)
    # ------------------------------------------------------------------
    def _segments(self, list_index: int) -> list[_Run]:
        """List ``list_index``'s live runs: tombstone-filtered base
        segments plus the sorted delta segment -- the inputs of one
        :class:`~repro.middleware.database.ListMergeCursor` merge."""
        self._check_list(list_index)
        stale = self._stale[list_index]
        runs: list[_Run] = []
        for rows, grades, ties in self._base[list_index]:
            keep = ~stale[rows]
            if keep.all():
                runs.append((rows, grades, ties))
            else:
                runs.append((rows[keep], grades[keep], ties[keep]))
        delta = self._delta[list_index]
        if delta:
            drows = np.fromiter(
                delta.keys(), dtype=np.intp, count=len(delta)
            )
            dgrades = np.fromiter(
                delta.values(), dtype=np.float64, count=len(delta)
            )
            order = np.lexsort((drows, -dgrades))
            drows = drows[order]
            runs.append((drows, dgrades[order], drows.astype(np.int64)))
        return runs

    def merge_cursor(self, list_index: int) -> ListMergeCursor:
        """A fresh streaming merge cursor over list ``list_index``'s
        live segments."""
        return ListMergeCursor(self._segments(list_index))

    def list_runs(self, list_index: int) -> list[_Run]:
        """The live segments themselves (filtered base + delta)."""
        return self._segments(list_index)

    def _merged_order(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._merged[i]
        if cached is None:
            cached = ListMergeCursor(self._segments(i)).drain()
            self._merged[i] = cached
        return cached

    @property
    def _order_rows(self) -> Sequence[np.ndarray]:  # type: ignore[override]
        return _MergedOrders(self, 0)

    @property
    def _order_grades(self) -> Sequence[np.ndarray]:  # type: ignore[override]
        return _MergedOrders(self, 1)

    # ------------------------------------------------------------------
    # the write plane
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    def insert(self, obj: ObjectId, grades: Sequence[float]) -> None:
        vec = tuple(float(g) for g in grades)
        if len(vec) != self._m:
            raise DatabaseError(
                f"expected {self._m} grades for the insert, got {len(vec)}"
            )
        for i, g in enumerate(vec):
            _check_grade(g, f"grade of inserted object in list {i}")
        if obj in self._row_of:
            raise DatabaseError(
                f"object {obj!r} already exists; use update_grade"
            )
        slot = self._n_slots
        self._ensure_capacity(slot + 1)
        self._n_slots = slot + 1
        self._matrix = self._store[: self._n_slots]
        self._matrix[slot] = vec
        self._ids.append(obj)
        self._row_of[obj] = slot
        self._live[slot] = True
        self._n_live += 1
        for i in range(self._m):
            self._delta[i][slot] = vec[i]
        self._note_insert_slot(slot)
        self._invalidate()
        self._emit(MutationEvent("insert", obj, vec, None, self._version))
        self._maybe_compact()

    def update_grade(
        self, obj: ObjectId, list_index: int, grade: float
    ) -> None:
        self._check_list(list_index)
        g = _check_grade(
            grade, f"updated grade of {obj!r} in list {list_index}"
        )
        slot = self._row_of.get(obj)
        if slot is None:
            raise UnknownObjectError(obj)
        self._matrix[slot, list_index] = g
        delta = self._delta[list_index]
        if slot not in delta:
            # the base segment's entry for this slot is now superseded
            self._stale[list_index][slot] = True
            self._stale_count[list_index] += 1
        delta[slot] = g
        self._invalidate(lists=(list_index,))
        self._emit(
            MutationEvent(
                "update",
                obj,
                tuple(self._matrix[slot].tolist()),
                list_index,
                self._version,
            )
        )
        self._maybe_compact()

    def delete(self, obj: ObjectId) -> None:
        slot = self._row_of.pop(obj, None)
        if slot is None:
            raise UnknownObjectError(obj)
        vec = tuple(self._matrix[slot].tolist())
        self._live[slot] = False
        self._n_live -= 1
        for i in range(self._m):
            if slot in self._delta[i]:
                del self._delta[i][slot]
            else:
                self._stale[i][slot] = True
                self._stale_count[i] += 1
        self._invalidate()
        self._emit(MutationEvent("delete", obj, vec, None, self._version))
        self._maybe_compact()

    def _note_insert_slot(self, slot: int) -> None:
        """Hook for the sharded subclass (extends the last shard)."""

    def _ensure_capacity(self, n: int) -> None:
        cap = self._store.shape[0]
        if n <= cap:
            return
        new_cap = max(2 * cap, n, 16)
        store = np.empty((new_cap, self._m), dtype=np.float64)
        store[: self._n_slots] = self._store[: self._n_slots]
        self._store = store
        self._matrix = store[: self._n_slots]
        live = np.zeros(new_cap, dtype=bool)
        live[: self._n_slots] = self._live[: self._n_slots]
        self._live = live
        for i in range(self._m):
            stale = np.zeros(new_cap, dtype=bool)
            stale[: self._n_slots] = self._stale[i][: self._n_slots]
            self._stale[i] = stale

    def _invalidate(
        self, lists: Iterable[int] | None = None
    ) -> None:
        """Bump the version and drop every cache a mutation can have
        desynchronised."""
        self._version += 1
        if lists is None:
            self._merged = [None] * self._m
        else:
            for i in lists:
                self._merged[i] = None
        self._position0_rows = None

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _overhead(self) -> int:
        return max(
            len(self._delta[i]) + self._stale_count[i]
            for i in range(self._m)
        )

    def _maybe_compact(self) -> None:
        if not self._auto_compact:
            return
        overhead = self._overhead()
        if overhead > self._compact_min and (
            overhead > self._compact_fraction * max(self._n_live, 1)
        ):
            self.compact()

    def _live_slots(self) -> np.ndarray:
        return np.nonzero(self._live[: self._n_slots])[0]

    def compact(self) -> None:
        """Fold deltas and tombstones back into dense base segments.

        Observationally a no-op: every read answers identically before
        and after (the slot -> row remap is monotone, so the argsort
        order of the compacted matrix *is* the pre-compaction merged
        order).  Does not change :attr:`version`.
        """
        slots = self._live_slots()
        n = len(slots)
        matrix = self._matrix[slots]
        ids = [self._ids[s] for s in slots.tolist()]
        self._pre_compact_remap(slots)
        self._store = matrix
        self._matrix = matrix
        self._ids = ids
        self._row_of = {o: r for r, o in enumerate(ids)}
        self._n_slots = n
        self._n_live = n
        self._live = np.ones(n, dtype=bool)
        self._stale = [np.zeros(n, dtype=bool) for _ in range(self._m)]
        self._stale_count = [0] * self._m
        self._delta = [{} for _ in range(self._m)]
        self._merged = [None] * self._m
        self._position0_rows = None
        if n:
            self._rebuild_base()
        else:
            self._base = [[] for _ in range(self._m)]

    def _pre_compact_remap(self, slots: np.ndarray) -> None:
        """Hook for the sharded subclass (remaps the shard bounds)."""

    # ------------------------------------------------------------------
    # the read plane over live entries
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return self._n_live

    @property
    def objects(self) -> Iterable[ObjectId]:
        # _row_of iterates in slot (= compaction) order; snapshot the
        # keys so callers may mutate while iterating
        return iter(list(self._row_of))

    def __len__(self) -> int:
        return self._n_live

    def sorted_entry(self, list_index: int, position: int):
        self._check_list(list_index)
        if position < 0:
            raise IndexError(f"negative position {position}")
        rows, grades = self._merged_order(list_index)
        if position >= len(rows):
            return None
        return self._ids[rows[position]], float(grades[position])

    # random access reads the in-place-updated matrix through the live
    # id interning; the columnar implementations are already correct
    # (and must win over ShardedDatabase's stale shard-view variant in
    # the sharded subclass's MRO)
    grade = ColumnarDatabase.grade
    grade_vector = ColumnarDatabase.grade_vector

    def overall_grades(self, t) -> dict[ObjectId, float]:
        t.check_arity(self._m)
        slots = self._live_slots()
        values = t.aggregate_batch(self._matrix[slots])
        ids = self._ids
        return {
            ids[s]: v for s, v in zip(slots.tolist(), values.tolist())
        }

    def top_k(self, t, k: int) -> list[tuple[ObjectId, float]]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        t.check_arity(self._m)
        # rows of the list-0 merged order are all live slots, already
        # in the scalar tie-break order (list-0 position); a stable
        # sort by overall grade therefore reproduces Database.top_k
        rows0, _ = self._merged_order(0)
        overall = t.aggregate_batch(self._matrix[rows0])
        order = np.argsort(-overall, kind="stable")[:k]
        ids = self._ids
        return [
            (ids[rows0[j]], float(overall[j])) for j in order.tolist()
        ]

    def satisfies_distinctness(self) -> bool:
        for i in range(self._m):
            g = self._merged_order(i)[1]
            if (g[1:] == g[:-1]).any():
                return False
        return True

    def to_array(self, object_ids: Sequence[ObjectId] | None = None):
        if object_ids is None:
            slots = self._live_slots()
            return (
                [self._ids[s] for s in slots.tolist()],
                self._matrix[slots],
            )
        ids = list(object_ids)
        rows = self.rows_for(ids)
        return ids, self._matrix[rows]

    def to_columnar(self) -> ColumnarDatabase:
        """A read-only compacted snapshot of the current contents
        (dense rows in slot order, merged order arrays carried over --
        bit-identical to a from-scratch build, no re-sort)."""
        slots = self._live_slots()
        remap = np.empty(self._n_slots, dtype=np.intp)
        remap[slots] = np.arange(len(slots), dtype=np.intp)
        matrix = self._matrix[slots]
        ids = [self._ids[s] for s in slots.tolist()]
        order_rows = [
            remap[self._merged_order(i)[0]] for i in range(self._m)
        ]
        return ColumnarDatabase(matrix, ids, order_rows, validate=False)

    def snapshot(self) -> ColumnarDatabase:
        """Alias of :meth:`to_columnar` (the read-only snapshot the
        differential suite rebuilds from scratch)."""
        return self.to_columnar()

    def _speculation_store(self) -> ColumnarDatabase:
        # engines size row-indexed scratch arrays by ``num_objects``;
        # hand them a dense compacted snapshot (cached per version) so
        # slot indices never leak into the speculative fast path and
        # in-flight runs are isolated from later mutations
        cached = self.__dict__.get("_snapshot_cache")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        snap = self.to_columnar()
        self.__dict__["_snapshot_cache"] = (self._version, snap)
        return snap

    def to_sharded(self, num_shards: int = 1) -> ShardedDatabase:
        return ShardedDatabase.from_database(
            self.to_columnar(), num_shards=num_shards
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MutableColumnarDatabase N={self.num_objects} "
            f"m={self.num_lists} v={self._version}>"
        )


class MutableShardedDatabase(MutableColumnarDatabase, ShardedDatabase):
    """The sharded backend with the mutation plane attached.

    Base segments are the per-shard stable-argsort runs; deltas and
    tombstones work exactly as in :class:`MutableColumnarDatabase`
    (one delta segment per list serves all shards -- the merge cursor
    does not care how many runs it merges).  Inserted slots belong to
    the *last* shard's row range; compaction re-derives dense shard
    bounds with the same monotone remap that keeps order exact.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        ids: Sequence[ObjectId],
        *,
        num_shards: int = 1,
        shard_bounds: np.ndarray | None = None,
        validate: bool = True,
        **knobs,
    ):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DatabaseError(
                f"expected a 2-D (N, m) array, got shape {matrix.shape}"
            )
        if shard_bounds is not None:
            self._shard_bounds = np.asarray(shard_bounds, dtype=np.intp)
        else:
            self._shard_bounds = shard_bounds_for(
                matrix.shape[0], num_shards
            )
        n = matrix.shape[0]
        bounds = self._shard_bounds
        if (
            bounds[0] != 0
            or bounds[-1] != n
            or (np.diff(bounds) < 0).any()
        ):
            raise DatabaseError(
                f"shard bounds {bounds.tolist()} do not partition 0..{n}"
            )
        super().__init__(matrix, ids, None, validate, **knobs)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
        *,
        num_shards: int = 1,
        **knobs,
    ) -> "MutableShardedDatabase":
        return cls(
            array,
            object_ids
            if object_ids is not None
            else range(np.asarray(array).shape[0]),
            num_shards=num_shards,
            validate=validate,
            **knobs,
        )

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[ObjectId, Sequence[float]],
        validate: bool = True,
        *,
        num_shards: int = 1,
        **knobs,
    ) -> "MutableShardedDatabase":
        if not rows:
            raise DatabaseError("database must contain at least one object")
        arities = {len(v) for v in rows.values()}
        if len(arities) != 1:
            raise DatabaseError(
                "all objects must have the same number of grades; got "
                f"{arities}"
            )
        if arities.pop() < 1:
            raise DatabaseError("objects must have at least one grade")
        ids = list(rows)
        matrix = np.array(
            [list(rows[obj]) for obj in ids], dtype=np.float64
        )
        return cls.from_array(
            matrix, ids, validate, num_shards=num_shards, **knobs
        )

    @classmethod
    def from_columns(
        cls,
        columns,
        validate: bool = True,
        *,
        num_shards: int = 1,
        **knobs,
    ) -> "MutableShardedDatabase":
        scalar = Database.from_columns(columns, validate=validate)
        return cls.from_database(
            scalar, num_shards=num_shards, **knobs
        )

    @classmethod
    def from_shards(
        cls,
        shard_matrices: Sequence[np.ndarray],
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
        **knobs,
    ) -> "MutableShardedDatabase":
        if not shard_matrices:
            raise DatabaseError("need at least one shard")
        parts = [np.asarray(p, dtype=float) for p in shard_matrices]
        matrix = parts[0] if len(parts) == 1 else np.concatenate(parts)
        bounds = np.concatenate(
            [[0], np.cumsum([len(p) for p in parts])]
        ).astype(np.intp)
        if object_ids is None:
            object_ids = range(matrix.shape[0])
        return cls(
            matrix,
            object_ids,
            shard_bounds=bounds,
            validate=validate,
            **knobs,
        )

    @classmethod
    def from_database(
        cls,
        db: Database,
        num_shards: int = 1,
        *,
        shard_bounds: np.ndarray | None = None,
        **knobs,
    ) -> "MutableShardedDatabase":
        """A mutable sharded copy of any database's current contents
        (tie placement re-based to stable argsort, as for
        :meth:`MutableColumnarDatabase.from_database`)."""
        col = db.to_columnar()
        ids, matrix = col.to_array()
        if shard_bounds is not None:
            return cls(
                matrix, ids, shard_bounds=shard_bounds, **knobs
            )
        return cls(matrix, ids, num_shards=num_shards, **knobs)

    # ------------------------------------------------------------------
    # base segments: per-shard argsort runs over the current slot space
    # ------------------------------------------------------------------
    def _rebuild_base(self) -> None:
        runs = ShardedDatabase._argsort_runs(
            self._matrix, self._shard_bounds
        )
        self._base = runs

    def _note_insert_slot(self, slot: int) -> None:
        # the insert tail belongs to the last shard's row range
        self._shard_bounds[-1] = self._n_slots

    def _pre_compact_remap(self, slots: np.ndarray) -> None:
        bounds = np.searchsorted(
            slots, self._shard_bounds, side="left"
        ).astype(np.intp)
        bounds[-1] = len(slots)
        self._shard_bounds = bounds

    @property
    def shard_bounds(self) -> np.ndarray:
        """The shard layout over the *compacted* (live, dense) row
        space -- what :meth:`snapshot` and store persistence use."""
        slots = self._live_slots()
        bounds = np.searchsorted(
            slots, self._shard_bounds, side="left"
        ).astype(np.intp)
        bounds[-1] = len(slots)
        return bounds

    def snapshot(self) -> ShardedDatabase:
        """A read-only compacted sharded snapshot (same shard count,
        dense remapped bounds, exact order)."""
        return ShardedDatabase.from_database(
            self.to_columnar(), shard_bounds=self.shard_bounds
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MutableShardedDatabase N={self.num_objects} "
            f"m={self.num_lists} S={self.num_shards} v={self._version}>"
        )
