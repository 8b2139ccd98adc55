"""The middleware's view of a database: ``m`` sorted lists over ``N``
objects.

Following Section 1 of the paper, a database is a finite set of objects,
each with ``m`` grades in ``[0, 1]``; list ``i`` contains one entry
``(R, x_i)`` per object, sorted by grade in descending order.  This module
stores that view directly:

* a grade table (object -> tuple of ``m`` grades) giving O(1) random
  access, and
* ``m`` explicit orderings giving O(1) sorted access by position.

Tie order inside a list is semantically *arbitrary* (the paper breaks ties
arbitrarily) but operationally significant: several counterexamples in the
paper place a specific object below its grade-mates.  Construction via
:meth:`Database.from_columns` therefore preserves the caller's exact order,
while :meth:`Database.from_rows` produces a deterministic order (grade
descending, insertion order among ties).

The database itself performs no accounting; all algorithmic access is
mediated (and charged) by :class:`repro.middleware.access.AccessSession`.

Two interchangeable backends implement the view:

* :class:`Database` -- the scalar reference backend: a dict grade table
  plus per-list orderings as Python lists.  Simple, order-preserving,
  and the semantic baseline everything else is verified against.
* :class:`ColumnarDatabase` -- the array backend: one contiguous
  ``(N, m)`` float64 grade matrix, precomputed stable argsort orderings
  (as row-index arrays with the grades along each list materialised),
  and an object-id <-> row-index interning table.  It exposes the exact
  same API and tie semantics, answers the same queries bit-for-bit, and
  additionally powers the batched access plane of
  :class:`~repro.middleware.access.AccessSession` (array slices per
  sorted batch, fancy-indexed gathers per random batch).

``Database.to_columnar()`` converts any database -- including
tie-order-sensitive adversarial constructions -- without changing any
observable ordering.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Hashable

import numpy as np

from .errors import DatabaseError, UnknownListError, UnknownObjectError

if TYPE_CHECKING:
    from ..store.valve import ResidencyValve

__all__ = [
    "Database",
    "ColumnarDatabase",
    "ShardedDatabase",
    "ListMergeCursor",
    "shard_bounds_for",
]

ObjectId = Hashable


def _coerce_array_and_ids(
    array: np.ndarray, object_ids: Sequence[ObjectId] | None
) -> tuple[np.ndarray, list]:
    """Shared constructor-argument checks of the array backends: a
    non-empty 2-D float grade matrix plus one distinct id per row
    (defaulting to ``0 .. N-1``)."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2:
        raise DatabaseError(
            f"expected a 2-D (N, m) array, got shape {array.shape}"
        )
    n, m = array.shape
    if n < 1 or m < 1:
        raise DatabaseError(f"array must be non-empty, got shape {array.shape}")
    if object_ids is None:
        object_ids = range(n)
    ids = list(object_ids)
    if len(ids) != n:
        raise DatabaseError(f"got {len(ids)} object ids for {n} rows")
    if len(set(ids)) != n:
        raise DatabaseError("object ids must be distinct")
    return array, ids


class Database:
    """Immutable ``m``-list graded database.

    Use one of the classmethod constructors:

    * :meth:`from_rows` -- ``{object_id: (x1, ..., xm)}``;
    * :meth:`from_columns` -- explicit per-list orderings (for adversarial
      constructions where tie order matters);
    * :meth:`from_array` -- an ``(N, m)`` numpy array of grades.
    """

    def __init__(
        self,
        grades: dict[ObjectId, tuple[float, ...]],
        orderings: list[list[ObjectId]],
        validate: bool = True,
    ):
        self._grades = grades
        self._orderings = orderings
        self._m = len(orderings)
        self._position0: dict[ObjectId, int] | None = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Mapping[ObjectId, Sequence[float]],
        validate: bool = True,
    ) -> "Database":
        """Build from ``{object_id: grade_vector}``.

        Each list is ordered by grade descending; ties keep the mapping's
        insertion order (stable sort), making construction deterministic.
        """
        if not rows:
            raise DatabaseError("database must contain at least one object")
        arities = {len(v) for v in rows.values()}
        if len(arities) != 1:
            raise DatabaseError(
                f"all objects must have the same number of grades; got {arities}"
            )
        m = arities.pop()
        if m < 1:
            raise DatabaseError("objects must have at least one grade")
        grades = {obj: tuple(float(g) for g in vec) for obj, vec in rows.items()}
        objects = list(grades)
        orderings = [
            sorted(objects, key=lambda obj: -grades[obj][i]) for i in range(m)
        ]
        return cls(grades, orderings, validate=validate)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[tuple[ObjectId, float]]],
        validate: bool = True,
    ) -> "Database":
        """Build from explicit per-list ``[(object_id, grade), ...]`` in the
        exact sorted order to expose, preserving tie placement.

        Raises :class:`DatabaseError` if any column is not non-increasing
        in grade or the columns disagree on the object set.
        """
        if not columns:
            raise DatabaseError("database must contain at least one list")
        grades: dict[ObjectId, list[float | None]] = {}
        m = len(columns)
        orderings: list[list[ObjectId]] = []
        for i, column in enumerate(columns):
            ordering: list[ObjectId] = []
            previous = None
            for obj, grade in column:
                grade = float(grade)
                if previous is not None and grade > previous + 1e-15:
                    raise DatabaseError(
                        f"list {i} is not sorted descending at object {obj!r}"
                    )
                previous = grade
                vec = grades.setdefault(obj, [None] * m)
                if vec[i] is not None:
                    raise DatabaseError(
                        f"object {obj!r} appears twice in list {i}"
                    )
                vec[i] = grade
                ordering.append(obj)
            orderings.append(ordering)
        missing = {
            obj: [i for i, g in enumerate(vec) if g is None]
            for obj, vec in grades.items()
            if any(g is None for g in vec)
        }
        if missing:
            raise DatabaseError(
                f"objects missing from some lists: {dict(list(missing.items())[:5])}"
            )
        final = {obj: tuple(vec) for obj, vec in grades.items()}
        return cls(final, orderings, validate=validate)

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
    ) -> "Database":
        """Build from an ``(N, m)`` array of grades.

        ``object_ids`` defaults to ``0 .. N-1``.  Ordering inside each list
        is grade descending with ties broken by object index (via a stable
        argsort), which is deterministic.
        """
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise DatabaseError(
                f"expected a 2-D (N, m) array, got shape {array.shape}"
            )
        n, m = array.shape
        if n < 1 or m < 1:
            raise DatabaseError(f"array must be non-empty, got shape {array.shape}")
        if object_ids is None:
            object_ids = range(n)
        ids = list(object_ids)
        if len(ids) != n:
            raise DatabaseError(
                f"got {len(ids)} object ids for {n} rows"
            )
        grades = {obj: tuple(array[row].tolist()) for row, obj in enumerate(ids)}
        orderings: list[list[ObjectId]] = []
        for i in range(m):
            order = np.argsort(-array[:, i], kind="stable")
            orderings.append([ids[row] for row in order.tolist()])
        return cls(grades, orderings, validate=validate)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._grades:
            raise DatabaseError("database must contain at least one object")
        if self._m < 1:
            raise DatabaseError("database must contain at least one list")
        n = len(self._grades)
        for obj, vec in self._grades.items():
            if len(vec) != self._m:
                raise DatabaseError(
                    f"object {obj!r} has {len(vec)} grades, expected {self._m}"
                )
            for i, g in enumerate(vec):
                if not (0.0 <= g <= 1.0) or g != g:  # NaN check via g != g
                    raise DatabaseError(
                        f"grade of object {obj!r} in list {i} is {g}, "
                        "outside [0, 1]"
                    )
        for i, ordering in enumerate(self._orderings):
            if len(ordering) != n:
                raise DatabaseError(
                    f"list {i} has {len(ordering)} entries for {n} objects"
                )
            if len(set(ordering)) != n:
                raise DatabaseError(f"list {i} contains duplicate objects")
            previous = None
            for obj in ordering:
                g = self._grades[obj][i]
                if previous is not None and g > previous + 1e-15:
                    raise DatabaseError(f"list {i} is not sorted descending")
                previous = g

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        """``N``, the number of objects."""
        return len(self._grades)

    @property
    def num_lists(self) -> int:
        """``m``, the number of sorted lists (= arity of the query)."""
        return self._m

    @property
    def objects(self) -> Iterable[ObjectId]:
        """All object ids (iteration order unspecified)."""
        return self._grades.keys()

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._grades

    def __len__(self) -> int:
        return len(self._grades)

    # ------------------------------------------------------------------
    # raw (un-accounted) access; algorithms must go through AccessSession
    # ------------------------------------------------------------------
    def sorted_entry(self, list_index: int, position: int):
        """Entry ``(object, grade)`` at 0-based ``position`` of list
        ``list_index``, or ``None`` past the end."""
        self._check_list(list_index)
        ordering = self._orderings[list_index]
        if position < 0:
            raise IndexError(f"negative position {position}")
        if position >= len(ordering):
            return None
        obj = ordering[position]
        return obj, self._grades[obj][list_index]

    def grade(self, obj: ObjectId, list_index: int) -> float:
        """Grade of ``obj`` in list ``list_index`` (a random-access probe)."""
        self._check_list(list_index)
        vec = self._grades.get(obj)
        if vec is None:
            raise UnknownObjectError(obj)
        return vec[list_index]

    def grade_vector(self, obj: ObjectId) -> tuple[float, ...]:
        """All ``m`` grades of ``obj``."""
        vec = self._grades.get(obj)
        if vec is None:
            raise UnknownObjectError(obj)
        return vec

    def _check_list(self, list_index: int) -> None:
        if not (0 <= list_index < self._m):
            raise UnknownListError(list_index, self._m)

    # ------------------------------------------------------------------
    # ground truth and structural predicates (used by verification,
    # generators and the certificate searcher; never by the algorithms)
    # ------------------------------------------------------------------
    def overall_grades(self, t) -> dict[ObjectId, float]:
        """``{object: t(grades)}`` for every object -- the naive ground
        truth."""
        t.check_arity(self._m)
        return {obj: t.aggregate(vec) for obj, vec in self._grades.items()}

    def top_k(self, t, k: int) -> list[tuple[ObjectId, float]]:
        """The true top-``k`` as ``[(object, overall grade)]``, grade
        descending, ties broken deterministically by list-0 position."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        overall = self.overall_grades(t)
        if self._position0 is None:
            # the database is immutable, so the tie-break positions are
            # computed once and reused by every verification call
            self._position0 = {
                obj: pos for pos, obj in enumerate(self._orderings[0])
            }
        position = self._position0
        ranked = sorted(
            overall.items(), key=lambda item: (-item[1], position[item[0]])
        )
        return ranked[:k]

    def kth_grade(self, t, k: int) -> float:
        """The overall grade of the ``k``-th best object."""
        ranked = self.top_k(t, min(k, self.num_objects))
        return ranked[-1][1]

    def satisfies_distinctness(self) -> bool:
        """True iff no two objects share a grade in any list (the
        *distinctness property* of Section 6)."""
        for i in range(self._m):
            seen: set[float] = set()
            for obj in self._orderings[i]:
                g = self._grades[obj][i]
                if g in seen:
                    return False
                seen.add(g)
        return True

    def to_array(self, object_ids: Sequence[ObjectId] | None = None):
        """Dense ``(N, m)`` grade matrix (row order = ``object_ids`` or
        arbitrary-but-fixed)."""
        ids = list(object_ids) if object_ids is not None else list(self._grades)
        out = np.empty((len(ids), self._m), dtype=float)
        for row, obj in enumerate(ids):
            out[row] = self.grade_vector(obj)
        return ids, out

    def to_columnar(self) -> "ColumnarDatabase":
        """An equivalent :class:`ColumnarDatabase`, preserving the exact
        per-list tie order of this database."""
        ids, matrix = self.to_array()
        row_of = {obj: row for row, obj in enumerate(ids)}
        order_rows = [
            np.fromiter(
                (row_of[obj] for obj in ordering), dtype=np.intp, count=len(ids)
            )
            for ordering in self._orderings
        ]
        return ColumnarDatabase(matrix, ids, order_rows, validate=False)

    def to_sharded(self, num_shards: int = 1) -> "ShardedDatabase":
        """An equivalent :class:`ShardedDatabase` over ``num_shards``
        contiguous row-range shards, preserving the exact per-list tie
        order of this database."""
        return ShardedDatabase.from_database(self, num_shards=num_shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Database N={self.num_objects} m={self.num_lists}>"


class ColumnarDatabase(Database):
    """Array-backed database: same API and semantics as :class:`Database`,
    stored as a contiguous grade matrix with precomputed orderings.

    Internals (all private, consumed by the batched access plane):

    * ``_matrix`` -- C-contiguous ``(N, m)`` float64 grade matrix;
    * ``_ids`` / ``_row_of`` -- row-index <-> object-id interning;
    * ``_order_rows[i]`` -- row indices of list ``i`` in sorted order;
    * ``_order_grades[i]`` -- grades of list ``i`` in sorted order
      (materialised so a sorted batch is a pure slice, no gather).

    When the object ids are exactly ``0 .. N-1`` (the default of
    :meth:`from_array`), id <-> row translation is the identity and is
    skipped entirely.
    """

    #: a store's residency valve, run before each slice of a sliced
    #: gather (see :meth:`_gather`); ``None`` for in-RAM databases
    _valve: ResidencyValve | None = None

    def __init__(
        self,
        matrix: np.ndarray,
        ids: Sequence[ObjectId],
        order_rows: Sequence[np.ndarray],
        validate: bool = True,
    ):
        self._init_core(matrix, ids)
        self._order_rows = [
            np.array(rows, dtype=np.intp) for rows in order_rows
        ]
        self._order_grades = [
            self._matrix[rows, i] for i, rows in enumerate(self._order_rows)
        ]
        if validate:
            self._validate()

    def _init_core(
        self, matrix: np.ndarray, ids: Sequence[ObjectId]
    ) -> None:
        """The storage every array backend shares: the copied matrix,
        the id <-> row interning, and the trivial-ids shortcut."""
        # always copy: the database is immutable by contract, and sharing
        # memory with the caller's array would let later mutations of it
        # silently desynchronise the materialised orderings (the scalar
        # backend copies into its dicts and is immune)
        matrix = np.array(matrix, dtype=np.float64, order="C")
        if matrix.ndim != 2:
            raise DatabaseError(
                f"expected a 2-D (N, m) array, got shape {matrix.shape}"
            )
        self._matrix = matrix
        self._ids = list(ids)
        self._m = matrix.shape[1]
        self._row_of = {obj: row for row, obj in enumerate(self._ids)}
        # identity shortcut only for genuine int ids 0..N-1: a value
        # check alone would let float (or bool) ids equal to their row
        # index through, and ids_for_rows would then hand back ints of
        # a different type than the scalar backend's objects
        self._trivial_ids = all(
            type(obj) is int and obj == row
            for row, obj in enumerate(self._ids)
        )
        self._position0_rows: np.ndarray | None = None

    # ------------------------------------------------------------------
    # constructors (mirroring Database's, with identical tie semantics)
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Mapping[ObjectId, Sequence[float]],
        validate: bool = True,
    ) -> "ColumnarDatabase":
        """Build from ``{object_id: grade_vector}``; ties keep insertion
        order (stable argsort), exactly like :meth:`Database.from_rows`."""
        if not rows:
            raise DatabaseError("database must contain at least one object")
        arities = {len(v) for v in rows.values()}
        if len(arities) != 1:
            raise DatabaseError(
                f"all objects must have the same number of grades; got {arities}"
            )
        m = arities.pop()
        if m < 1:
            raise DatabaseError("objects must have at least one grade")
        ids = list(rows)
        matrix = np.array([list(rows[obj]) for obj in ids], dtype=np.float64)
        order_rows = [
            np.argsort(-matrix[:, i], kind="stable") for i in range(m)
        ]
        return cls(matrix, ids, order_rows, validate=validate)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[tuple[ObjectId, float]]],
        validate: bool = True,
    ) -> "ColumnarDatabase":
        """Build from explicit per-list orderings, preserving tie
        placement; same checks and messages as
        :meth:`Database.from_columns`."""
        scalar = Database.from_columns(columns, validate=False)
        columnar = scalar.to_columnar()
        if validate:
            columnar._validate()
        return columnar

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
    ) -> "ColumnarDatabase":
        """Build from an ``(N, m)`` grade array; deterministic stable
        ordering, identical to :meth:`Database.from_array`."""
        array, ids = _coerce_array_and_ids(array, object_ids)
        order_rows = [
            np.argsort(-array[:, i], kind="stable")
            for i in range(array.shape[1])
        ]
        return cls(array, ids, order_rows, validate=validate)

    @classmethod
    def from_database(cls, db: Database) -> "ColumnarDatabase":
        """Convert any database (scalar or columnar) to columnar form."""
        if isinstance(db, ColumnarDatabase):
            return db
        return db.to_columnar()

    def to_columnar(self) -> "ColumnarDatabase":
        return self

    def _speculation_store(self) -> "ColumnarDatabase":
        """The columnar storage the access plane's *speculative* fast
        path reads through.  Read-only backends are their own store;
        mutable backends return a dense compacted snapshot so the
        engines' row-indexed scratch arrays (sized ``num_objects``)
        stay valid and in-flight runs are isolated from concurrent
        mutations."""
        return self

    def _project(self, lists: Sequence[int]) -> "ColumnarDatabase":
        """Lists ``lists`` of this database, in that order, as a
        read-only columnar database whose list ``j`` is this one's list
        ``lists[j]`` -- what a query over ``QuerySpec.lists`` reads.

        The projection shares the id interning, the per-list order
        arrays (no re-sort, so tie placement is exactly the parent's)
        and the residency valve; only the grade matrix is narrowed.
        When ``lists`` is an arithmetic progression -- any one or two
        lists, a contiguous range, a reversed set such as ``(3, 1)``
        -- it is a strided view of the parent's matrix (over a store:
        of the map itself, nothing read); any other list set copies
        its columns, O(N * len(lists)).  The full list set in order is
        the database itself."""
        lists = [int(i) for i in lists]
        for i in lists:
            self._check_list(i)
        if lists == list(range(self._m)):
            return self
        view = ColumnarDatabase.__new__(ColumnarDatabase)
        step = lists[1] - lists[0] if len(lists) > 1 else 1
        if step and lists == list(
            range(lists[0], lists[0] + step * len(lists), step)
        ):
            # a reversed range running down to list 0 has no stop index
            stop = lists[-1] + step
            view._matrix = self._matrix[
                :, lists[0] : stop if stop >= 0 else None : step
            ]
        else:
            view._matrix = self._matrix[:, lists]
        view._valve = self._valve
        view._ids = self._ids
        view._row_of = self._row_of
        view._trivial_ids = self._trivial_ids
        view._m = len(lists)
        view._position0_rows = None
        view._order_rows = [self._order_rows[i] for i in lists]
        view._order_grades = [self._order_grades[i] for i in lists]
        return view

    def _gather(
        self, rows: np.ndarray, column: int | None = None
    ) -> np.ndarray:
        """``_matrix[rows]``, or ``_matrix[rows, column]``: the random
        gather behind TA's speculation and ``random_access_batch``.

        Over a store whose valve slices gathers (``slice_rows``; see
        :mod:`repro.store.valve`), it reads in slices of that many rows
        and runs the residency valve before each: one fault can map a
        whole page-cache folio, so the gathers of one engine chunk
        could otherwise map the entire matrix between two of the
        engines' chunk boundaries."""
        matrix = self._matrix
        valve = self._valve
        if valve is None or valve.slice_rows is None:
            return matrix[rows] if column is None else matrix[rows, column]
        step = valve.slice_rows
        if column is not None:
            matrix = matrix[:, column]
        out = np.empty((len(rows),) + matrix.shape[1:], dtype=matrix.dtype)
        for lo in range(0, len(rows), step):
            valve.check()
            out[lo : lo + step] = matrix[rows[lo : lo + step]]
        return out

    # ------------------------------------------------------------------
    # scalar-backend compatibility (lazy; only built if legacy internals
    # are reached, e.g. by code written against the dict representation)
    # ------------------------------------------------------------------
    @property
    def _grades(self) -> dict[ObjectId, tuple[float, ...]]:
        grades = self.__dict__.get("_grades_cache")
        if grades is None:
            rows = self._matrix.tolist()
            grades = {obj: tuple(rows[r]) for r, obj in enumerate(self._ids)}
            self.__dict__["_grades_cache"] = grades
        return grades

    @property
    def _orderings(self) -> list[list[ObjectId]]:
        orderings = self.__dict__.get("_orderings_cache")
        if orderings is None:
            ids = self._ids
            orderings = [
                [ids[r] for r in rows.tolist()] for rows in self._order_rows
            ]
            self.__dict__["_orderings_cache"] = orderings
        return orderings

    # ------------------------------------------------------------------
    # vectorized validation
    # ------------------------------------------------------------------
    def _validate_core(self) -> None:
        """Shape, id-distinctness and grade-range checks shared by the
        array backends."""
        matrix = self._matrix
        n, m = matrix.shape
        if n < 1:
            raise DatabaseError("database must contain at least one object")
        if m < 1:
            raise DatabaseError("database must contain at least one list")
        if len(self._ids) != n:
            raise DatabaseError(f"got {len(self._ids)} object ids for {n} rows")
        if len(self._row_of) != n:
            raise DatabaseError("object ids must be distinct")
        bad = ~((matrix >= 0.0) & (matrix <= 1.0))  # catches NaN too
        if bad.any():
            row, i = map(int, np.argwhere(bad)[0])
            raise DatabaseError(
                f"grade of object {self._ids[row]!r} in list {i} is "
                f"{matrix[row, i]}, outside [0, 1]"
            )

    def _validate(self) -> None:
        self._validate_core()
        n = self._matrix.shape[0]
        for i, rows in enumerate(self._order_rows):
            if rows.shape != (n,):
                raise DatabaseError(
                    f"list {i} has {rows.shape[0]} entries for {n} objects"
                )
            if rows.size and (rows.min() < 0 or rows.max() >= n):
                raise DatabaseError(f"list {i} references unknown rows")
            if not (np.bincount(rows, minlength=n) == 1).all():
                raise DatabaseError(f"list {i} contains duplicate objects")
            g = self._order_grades[i]
            if (g[1:] > g[:-1] + 1e-15).any():
                raise DatabaseError(f"list {i} is not sorted descending")

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self._ids)

    @property
    def objects(self) -> Iterable[ObjectId]:
        return iter(self._ids)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._row_of

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------
    def sorted_entry(self, list_index: int, position: int):
        self._check_list(list_index)
        if position < 0:
            raise IndexError(f"negative position {position}")
        if position >= len(self._ids):
            return None
        row = self._order_rows[list_index][position]
        return self._ids[row], float(self._order_grades[list_index][position])

    def grade(self, obj: ObjectId, list_index: int) -> float:
        self._check_list(list_index)
        row = self._row_of.get(obj)
        if row is None:
            raise UnknownObjectError(obj)
        return float(self._matrix[row, list_index])

    def grade_vector(self, obj: ObjectId) -> tuple[float, ...]:
        row = self._row_of.get(obj)
        if row is None:
            raise UnknownObjectError(obj)
        return tuple(self._matrix[row].tolist())

    # ------------------------------------------------------------------
    # row <-> id translation (used by the batched access plane)
    # ------------------------------------------------------------------
    def rows_for(self, objects: Sequence[ObjectId]) -> np.ndarray:
        """Row indices of ``objects`` (raises
        :class:`~repro.middleware.errors.UnknownObjectError` on the first
        unknown id)."""
        if self._trivial_ids:
            arr = np.asarray(objects)
            # only genuine integer ids may take the identity shortcut; a
            # float or object array must go through the interning table so
            # unknown ids raise instead of truncating to a valid row
            if arr.ndim == 1 and arr.dtype.kind in "iu":
                rows = arr.astype(np.intp, copy=False)
                if rows.size and (
                    rows.min() < 0 or rows.max() >= len(self._ids)
                ):
                    bad = next(
                        o
                        for o in objects
                        if not 0 <= int(o) < len(self._ids)
                    )
                    raise UnknownObjectError(bad)
                return rows
        row_of = self._row_of
        out = np.empty(len(objects), dtype=np.intp)
        for pos, obj in enumerate(objects):
            row = row_of.get(obj)
            if row is None:
                raise UnknownObjectError(obj)
            out[pos] = row
        return out

    def ids_for_rows(self, rows: np.ndarray) -> list:
        """Object ids for an array of row indices."""
        if self._trivial_ids:
            return rows.tolist()
        ids = self._ids
        return [ids[r] for r in rows.tolist()]

    # ------------------------------------------------------------------
    # vectorized ground truth
    # ------------------------------------------------------------------
    def overall_grades(self, t) -> dict[ObjectId, float]:
        t.check_arity(self._m)
        values = t.aggregate_batch(self._matrix)
        return dict(zip(self._ids, values.tolist()))

    def top_k(self, t, k: int) -> list[tuple[ObjectId, float]]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        t.check_arity(self._m)
        overall = t.aggregate_batch(self._matrix)
        if self._position0_rows is None:
            pos0 = np.empty(len(self._ids), dtype=np.intp)
            pos0[self._order_rows[0]] = np.arange(len(self._ids))
            self._position0_rows = pos0
        # lexsort: last key is primary -> grade descending, then list-0
        # position ascending, matching the scalar tie-break exactly
        order = np.lexsort((self._position0_rows, -overall))
        ids = self._ids
        return [(ids[r], float(overall[r])) for r in order[:k].tolist()]

    def satisfies_distinctness(self) -> bool:
        for g in self._order_grades:
            if (g[1:] == g[:-1]).any():
                return False
        return True

    def to_array(self, object_ids: Sequence[ObjectId] | None = None):
        if object_ids is None:
            return list(self._ids), self._matrix.copy()
        ids = list(object_ids)
        rows = self.rows_for(ids)
        return ids, self._matrix[rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ColumnarDatabase N={self.num_objects} m={self.num_lists}>"


# ----------------------------------------------------------------------
# sharded backend: contiguous row-range shards + per-list merge cursors
# ----------------------------------------------------------------------

def shard_bounds_for(num_objects: int, num_shards: int) -> np.ndarray:
    """Balanced contiguous row-range partition: shard ``s`` owns rows
    ``[bounds[s], bounds[s+1])``; shard sizes differ by at most one.
    Shards may be empty when ``num_shards > num_objects``."""
    if num_shards < 1:
        raise DatabaseError(f"need at least one shard, got {num_shards}")
    return np.array(
        [(s * num_objects) // num_shards for s in range(num_shards + 1)],
        dtype=np.intp,
    )


#: one shard's slice of one sorted list: ``(rows, grades, ties)`` arrays
#: sorted by the merge key (grade descending, tie key ascending)
_Run = tuple[np.ndarray, np.ndarray, np.ndarray]


class ListMergeCursor:
    """Streaming k-way merge over one list's shard-local sorted runs.

    Each run is a ``(rows, grades, ties)`` triple sorted by the merge key
    *(grade descending, tie key ascending)*; tie keys are unique integers
    that encode the reference global order (the row index for databases
    built by stable argsort, the global list position for databases that
    carry an explicit -- possibly adversarial -- tie placement).  Merging
    by that key therefore streams the exact global sorted order,
    bit-for-bit, including tie placement: ties between shards are decided
    by the key, never by arrival order.

    Two consumption modes share one cursor position:

    * :meth:`take` / iteration -- heap-based streaming, O(log S) per
      entry, for consumers that want a prefix (the paper's algorithms
      rarely need more than a shallow prefix of each list);
    * :meth:`drain` -- a vectorised merge of everything not yet taken
      (``np.lexsort`` over the concatenated remainders), used to
      materialise whole order arrays.

    Both modes produce identical output (asserted by the test suite).
    """

    __slots__ = ("_runs", "_pos", "_heap")

    def __init__(self, runs: Sequence[_Run]):
        self._runs = list(runs)
        self._pos = [0] * len(self._runs)
        heap: list[tuple[float, int, int]] = []
        for s, (_rows, grades, ties) in enumerate(self._runs):
            if len(grades):
                heap.append((-float(grades[0]), int(ties[0]), s))
        heapq.heapify(heap)
        self._heap = heap

    @property
    def exhausted(self) -> bool:
        return not self._heap

    def __iter__(self) -> Iterator[tuple[int, float]]:
        while self._heap:
            yield self.next_entry()

    def next_entry(self) -> tuple[int, float]:
        """The next ``(row, grade)`` in global sorted order."""
        if not self._heap:
            raise IndexError("merge cursor exhausted")
        _neg, _tie, s = self._heap[0]
        rows, grades, ties = self._runs[s]
        p = self._pos[s]
        entry = (int(rows[p]), float(grades[p]))
        p += 1
        self._pos[s] = p
        if p < len(grades):
            heapq.heapreplace(
                self._heap, (-float(grades[p]), int(ties[p]), s)
            )
        else:
            heapq.heappop(self._heap)
        return entry

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` entries (fewer at exhaustion) as
        ``(rows, grades)`` arrays."""
        if n < 0:
            raise ValueError(f"take size must be >= 0, got {n}")
        remaining = sum(
            len(run[1]) - pos for run, pos in zip(self._runs, self._pos)
        )
        n = min(n, remaining)
        out_rows = np.empty(n, dtype=np.intp)
        out_grades = np.empty(n, dtype=np.float64)
        count = 0
        while count < n and self._heap:
            out_rows[count], out_grades[count] = self.next_entry()
            count += 1
        return out_rows[:count], out_grades[:count]

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """All remaining entries, merged vectorised.

        ``np.lexsort`` with the tie keys as the secondary key is a
        stable merge of the (already sorted) remainders; the heap path
        and this path produce identical arrays.
        """
        rows_parts: list[np.ndarray] = []
        grade_parts: list[np.ndarray] = []
        tie_parts: list[np.ndarray] = []
        for s, (rows, grades, ties) in enumerate(self._runs):
            p = self._pos[s]
            if p < len(grades):
                rows_parts.append(rows[p:])
                grade_parts.append(grades[p:])
                tie_parts.append(ties[p:])
            self._pos[s] = len(grades)
        self._heap = []
        if not rows_parts:
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.float64),
            )
        rows_all = np.concatenate(rows_parts)
        grades_all = np.concatenate(grade_parts)
        ties_all = np.concatenate(tie_parts)
        order = np.lexsort((ties_all, -grades_all))
        return (
            rows_all[order].astype(np.intp, copy=False),
            grades_all[order],
        )


class _MergedOrders(Sequence):
    """Per-list view over a :class:`ShardedDatabase`'s lazily merged
    order arrays, shaped like the ``_order_rows`` / ``_order_grades``
    lists of :class:`ColumnarDatabase` so the batched access plane and
    the chunked engines run unmodified on the sharded backend."""

    __slots__ = ("_db", "_part")

    def __init__(self, db: "ShardedDatabase", part: int):
        self._db = db
        self._part = part

    def __len__(self) -> int:
        return self._db.num_lists

    def __getitem__(self, i: int) -> np.ndarray:
        m = self._db.num_lists
        i = operator.index(i)
        if i < 0:
            i += m
        if not 0 <= i < m:
            raise IndexError(i)
        return self._db._merged_order(i)[self._part]


class ShardedDatabase(ColumnarDatabase):
    """Sharded array backend: the grade matrix is partitioned into
    ``S`` contiguous row-range shards, each holding its own per-list
    sorted runs; globally sorted access is produced by a per-list
    k-way :class:`ListMergeCursor` and random access is routed to the
    owning shard through the id -> row interning table.

    Same API, tie semantics and bit-for-bit results as
    :class:`ColumnarDatabase` (enforced by the differential suite):
    the merge key *(grade descending, unique tie key ascending)*
    reproduces the reference order exactly, so TA/NRA/CA/Stream-Combine
    -- including their speculative chunked engines -- run unmodified.

    Internals (per list ``i``, shard ``s``):

    * ``_runs[i][s]`` -- ``(rows, grades, ties)`` sorted by the merge
      key; ``rows`` are global row indices, ``ties`` the global
      tie-break keys (see :class:`ListMergeCursor`);
    * ``_shard_bounds`` -- ``S + 1`` row offsets; shard ``s`` owns rows
      ``[bounds[s], bounds[s+1])``, so routing a row to its shard is a
      binary search (and the batched access plane's fancy-indexed
      gathers into the concatenated matrix are the vectorised form of
      per-shard routing);
    * merged global order arrays are materialised lazily, per list, on
      first (uncharged) touch -- an O(N log S) merge instead of the
      O(N log N) global argsort, and only for lists actually accessed.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        ids: Sequence[ObjectId],
        shard_bounds: np.ndarray,
        runs: Sequence[Sequence[_Run]],
        validate: bool = True,
        _merged: Sequence[tuple[np.ndarray, np.ndarray] | None] | None = None,
    ):
        self._init_core(matrix, ids)
        self._shard_bounds = np.asarray(shard_bounds, dtype=np.intp)
        self._shard_matrices = [
            self._matrix[int(lo) : int(hi)]
            for lo, hi in zip(self._shard_bounds[:-1], self._shard_bounds[1:])
        ]
        self._runs = [list(shard_runs) for shard_runs in runs]
        self._merged_cache: list[tuple[np.ndarray, np.ndarray] | None] = (
            list(_merged) if _merged is not None else [None] * self._m
        )
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # shard topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """``S``, the number of row-range shards."""
        return len(self._shard_bounds) - 1

    @property
    def shard_bounds(self) -> np.ndarray:
        """The ``S + 1`` row offsets (copy; shard ``s`` owns rows
        ``[bounds[s], bounds[s+1])``)."""
        return self._shard_bounds.copy()

    def shard_of_row(self, row: int) -> int:
        """The shard owning global row index ``row``."""
        if not 0 <= row < len(self._ids):
            raise IndexError(f"row {row} out of range")
        return int(np.searchsorted(self._shard_bounds, row, side="right")) - 1

    def shard_of(self, obj: ObjectId) -> int:
        """The shard owning ``obj`` (via the id -> row interning)."""
        row = self._row_of.get(obj)
        if row is None:
            raise UnknownObjectError(obj)
        return self.shard_of_row(row)

    # ------------------------------------------------------------------
    # merge cursors and the lazily merged global orders
    # ------------------------------------------------------------------
    def list_runs(self, list_index: int) -> list[_Run]:
        """List ``list_index``'s per-shard ``(rows, grades, ties)``
        runs, shard order -- the units a
        :class:`ListMergeCursor` merges (and what a distributed
        deployment would serve per shard; see
        :func:`repro.services.assemble.shard_run_services`)."""
        self._check_list(list_index)
        return list(self._runs[list_index])

    def merge_cursor(self, list_index: int) -> ListMergeCursor:
        """A fresh streaming merge cursor over list ``list_index``'s
        shard runs."""
        self._check_list(list_index)
        return ListMergeCursor(self._runs[list_index])

    def iter_sorted(
        self, list_index: int
    ) -> Iterator[tuple[ObjectId, float]]:
        """Stream ``(object, grade)`` in global sorted order without
        materialising the merged order array."""
        ids = self._ids
        for row, grade in self.merge_cursor(list_index):
            yield ids[row], grade

    def _merged_order(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._merged_cache[i]
        if cached is None:
            cached = self.merge_cursor(i).drain()
            self._merged_cache[i] = cached
        return cached

    @property
    def _order_rows(self) -> Sequence[np.ndarray]:  # type: ignore[override]
        return _MergedOrders(self, 0)

    @property
    def _order_grades(self) -> Sequence[np.ndarray]:  # type: ignore[override]
        return _MergedOrders(self, 1)

    # ------------------------------------------------------------------
    # shard-routed random access (the batched plane's fancy-indexed
    # gathers into the concatenated matrix are the vectorised analogue:
    # contiguous range sharding makes the routing a slice offset)
    # ------------------------------------------------------------------
    def grade(self, obj: ObjectId, list_index: int) -> float:
        self._check_list(list_index)
        row = self._row_of.get(obj)
        if row is None:
            raise UnknownObjectError(obj)
        s = self.shard_of_row(row)
        lo = int(self._shard_bounds[s])
        return float(self._shard_matrices[s][row - lo, list_index])

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _argsort_runs(
        matrix: np.ndarray, bounds: np.ndarray
    ) -> list[list[_Run]]:
        """Per-shard stable argsorts (each shard orders its own rows
        independently -- the distributable part); tie keys are global
        row indices, which reproduces the global stable argsort order
        under the merge."""
        m = matrix.shape[1]
        runs: list[list[_Run]] = [[] for _ in range(m)]
        for s in range(len(bounds) - 1):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            block = matrix[lo:hi]
            for i in range(m):
                local = np.argsort(-block[:, i], kind="stable")
                rows = (lo + local).astype(np.intp, copy=False)
                runs[i].append(
                    (rows, block[local, i], rows.astype(np.int64))
                )
        return runs

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
        *,
        num_shards: int = 1,
    ) -> "ShardedDatabase":
        """Build from an ``(N, m)`` grade array partitioned into
        ``num_shards`` balanced row ranges; each shard argsorts its own
        slice (stable), and the merged order is identical to
        :meth:`ColumnarDatabase.from_array`'s."""
        array, ids = _coerce_array_and_ids(array, object_ids)
        bounds = shard_bounds_for(array.shape[0], num_shards)
        runs = cls._argsort_runs(array, bounds)
        return cls(array, ids, bounds, runs, validate=validate)

    @classmethod
    def from_shards(
        cls,
        shard_matrices: Sequence[np.ndarray],
        object_ids: Sequence[ObjectId] | None = None,
        validate: bool = True,
    ) -> "ShardedDatabase":
        """Build from per-shard ``(n_s, m)`` grade blocks (e.g. produced
        by independent workers); shard ``s`` owns the contiguous row
        range covering its block, in the order given."""
        if not shard_matrices:
            raise DatabaseError("need at least one shard")
        parts = [np.asarray(p, dtype=float) for p in shard_matrices]
        arities: set[int] = set()
        for s, p in enumerate(parts):
            if p.ndim != 2:
                raise DatabaseError(
                    f"shard {s}: expected a 2-D (n, m) array, got shape "
                    f"{p.shape}"
                )
            arities.add(p.shape[1])
        if len(arities) != 1:
            raise DatabaseError(
                f"shards disagree on the number of lists: {sorted(arities)}"
            )
        matrix = parts[0] if len(parts) == 1 else np.concatenate(parts)
        matrix, ids = _coerce_array_and_ids(matrix, object_ids)
        bounds = np.concatenate(
            [[0], np.cumsum([len(p) for p in parts])]
        ).astype(np.intp)
        runs = cls._argsort_runs(matrix, bounds)
        return cls(matrix, ids, bounds, runs, validate=validate)

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[ObjectId, Sequence[float]],
        validate: bool = True,
        *,
        num_shards: int = 1,
    ) -> "ShardedDatabase":
        """Build from ``{object_id: grade_vector}``; ties keep insertion
        order, exactly like :meth:`Database.from_rows`."""
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
        matrix = np.array([list(rows[obj]) for obj in ids], dtype=np.float64)
        return cls.from_array(
            matrix, ids, validate=validate, num_shards=num_shards
        )

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[tuple[ObjectId, float]]],
        validate: bool = True,
        *,
        num_shards: int = 1,
    ) -> "ShardedDatabase":
        """Build from explicit per-list orderings, preserving tie
        placement across the shard partition."""
        scalar = Database.from_columns(columns, validate=validate)
        return cls.from_database(scalar, num_shards=num_shards)

    @classmethod
    def from_database(
        cls,
        db: Database,
        num_shards: int = 1,
        *,
        shard_bounds: np.ndarray | None = None,
    ) -> "ShardedDatabase":
        """Re-shard any database (scalar, columnar or sharded) into
        ``num_shards`` contiguous row-range shards, preserving its exact
        per-list tie order: each shard's run is the subsequence of the
        reference global order falling in its row range, with the global
        list positions as tie keys.  ``shard_bounds`` overrides the
        balanced partition with explicit row offsets (used when
        restoring a persisted shard layout)."""
        col = ColumnarDatabase.from_database(db)
        matrix = col._matrix
        n = matrix.shape[0]
        if shard_bounds is not None:
            bounds = np.asarray(shard_bounds, dtype=np.intp)
            num_shards = len(bounds) - 1
        else:
            bounds = shard_bounds_for(n, num_shards)
        runs: list[list[_Run]] = []
        for i in range(col._m):
            g_rows = np.asarray(col._order_rows[i])
            g_grades = np.asarray(col._order_grades[i])
            shard_idx = np.searchsorted(bounds, g_rows, side="right") - 1
            shard_runs: list[_Run] = []
            for s in range(num_shards):
                mask = shard_idx == s
                shard_runs.append(
                    (
                        g_rows[mask].astype(np.intp, copy=False),
                        g_grades[mask],
                        np.nonzero(mask)[0].astype(np.int64),
                    )
                )
            runs.append(shard_runs)
        return cls(matrix, col._ids, bounds, runs, validate=False)

    # ------------------------------------------------------------------
    # validation (per shard; merged orders are validated implicitly by
    # the run invariants + the differential suite)
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        self._validate_core()
        matrix = self._matrix
        n, m = matrix.shape
        bounds = self._shard_bounds
        if (
            bounds[0] != 0
            or bounds[-1] != n
            or (np.diff(bounds) < 0).any()
        ):
            raise DatabaseError(
                f"shard bounds {bounds.tolist()} do not partition "
                f"0..{n}"
            )
        num_shards = self.num_shards
        if len(self._runs) != m:
            raise DatabaseError(
                f"got runs for {len(self._runs)} lists, expected {m}"
            )
        for i, shard_runs in enumerate(self._runs):
            if len(shard_runs) != num_shards:
                raise DatabaseError(
                    f"list {i} has runs for {len(shard_runs)} shards, "
                    f"expected {num_shards}"
                )
            rows_parts: list[np.ndarray] = []
            tie_parts: list[np.ndarray] = []
            for s, (rows, grades, ties) in enumerate(shard_runs):
                lo, hi = int(bounds[s]), int(bounds[s + 1])
                if not (len(rows) == len(grades) == len(ties)):
                    raise DatabaseError(
                        f"list {i} shard {s}: run arrays disagree in length"
                    )
                if rows.size and (rows.min() < lo or rows.max() >= hi):
                    raise DatabaseError(
                        f"list {i} shard {s} references rows outside "
                        f"[{lo}, {hi})"
                    )
                if not np.array_equal(matrix[rows, i], grades):
                    raise DatabaseError(
                        f"list {i} shard {s}: run grades disagree with "
                        "the grade matrix"
                    )
                if (grades[1:] > grades[:-1] + 1e-15).any():
                    raise DatabaseError(
                        f"list {i} shard {s} is not sorted descending"
                    )
                tied = grades[1:] == grades[:-1]
                if (ties[1:][tied] <= ties[:-1][tied]).any():
                    raise DatabaseError(
                        f"list {i} shard {s}: tie keys not ascending "
                        "within equal grades"
                    )
                rows_parts.append(rows)
                tie_parts.append(ties)
            all_rows = np.concatenate(rows_parts)
            if all_rows.size != n or not (
                np.bincount(all_rows, minlength=n) == 1
            ).all():
                raise DatabaseError(
                    f"list {i}: shard runs do not partition the rows"
                )
            all_ties = np.concatenate(tie_parts)
            if np.unique(all_ties).size != n:
                raise DatabaseError(
                    f"list {i}: tie keys are not unique across shards"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedDatabase N={self.num_objects} m={self.num_lists} "
            f"S={self.num_shards}>"
        )
