"""The access session: the only gateway through which algorithms touch a
database.

A session wraps a :class:`~repro.middleware.database.Database` and

* implements the two access modes of Section 2 (sorted access pops the
  next entry of a list; random access fetches a named object's grade),
* charges every access against a :class:`~repro.middleware.cost.CostModel`,
* enforces per-list capabilities (a list may forbid sorted and/or random
  access, modelling search engines without random access or the
  restricted-sorted-access scenario of Section 7), and
* optionally certifies the *no-wild-guess* property of Theorem 6.1 by
  raising :class:`~repro.middleware.errors.WildGuessError` when an object
  is random-accessed before ever being seen under sorted access.

Algorithms receive a session, never a database, so the access counts and
middleware cost reported by a run are trustworthy by construction.

Batched access plane
--------------------

The scalar methods (:meth:`AccessSession.sorted_access`,
:meth:`AccessSession.random_access`) charge one access per call.  Three
batched methods amortise the Python-level cost of the paper's inner
loops **without changing the cost accounting in any way**:

* :meth:`AccessSession.sorted_access_batch` pops the next ``n`` entries
  of one list and charges exactly the number of entries returned (a
  batch overrunning the end of the list returns, and charges, only what
  exists -- exhaustion stays free);
* :meth:`AccessSession.random_access_batch` fetches the grades of many
  objects from one list and charges ``len(objects)`` accesses --
  including repeats, exactly like the scalar method;
* :meth:`AccessSession.charge_schedule` charges one speculated chunk of
  lockstep rounds together with the random-access phases spliced into
  it (CA's), in the scalar loop's order, in one call.

Semantics are identical to issuing the equivalent scalar calls in
order: per-list counters, depth, wild-guess certification (a batch that
hits a wild guess charges the accesses *before* the offending object,
then raises, just as a scalar loop would have), capability checks and
trace recording are all preserved.  On the scalar backend the batch
methods fall back to the scalar loop (so the scalar plane's event
stream is byte-identical regardless; ``charge_schedule``, whose phases
name columnar rows, serves only the fast path); when the database is a
:class:`~repro.middleware.database.ColumnarDatabase` they instead serve
array slices and fancy-indexed gathers in O(1) Python operations per
batch, recording one *batch-granularity*
:class:`~repro.middleware.trace.BatchAccessEvent` per call when a trace
is requested -- tracing and the fast path compose, and the trace
summaries weight batch events by their access counts.  A
:class:`~repro.middleware.database.ShardedDatabase` takes the same fast
path: its per-list order arrays are materialised lazily by k-way merge
cursors over the shard runs (bit-identical to the columnar orderings),
and its fancy-indexed gathers into the concatenated matrix are the
vectorised form of per-shard random-access routing.  :attr:`AccessSession.supports_batches`
tells algorithms whether that fast path is active; every bound-based
algorithm in :mod:`repro.core` (TA and its TA-theta/TA-Z hooks, NRA,
CA, Stream-Combine) uses it to pick between its scalar reference loop
and its speculative chunked engine (see :meth:`AccessSession.columnar_view`
for the speculation contract, and ``docs/ARCHITECTURE.md`` for the
engine scheme).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .cost import CostModel, QueryBudget, UNIT_COSTS
from .database import ColumnarDatabase, Database
from .errors import (
    CapabilityError,
    ListLostError,
    ServiceUnavailableError,
    UnknownListError,
    UnknownObjectError,
    WildGuessError,
)
from .trace import RANDOM, SORTED, AccessEvent, AccessTrace, BatchAccessEvent

__all__ = [
    "ListCapabilities",
    "AccessStats",
    "AccessSession",
    "SortedBatch",
]


@dataclass(frozen=True)
class ListCapabilities:
    """Which access modes a list supports.

    The paper's scenarios map to:

    * default middleware (QBIC-like): both modes allowed;
    * web search engine: ``random_allowed=False`` (Section 2);
    * NYT-Review / MapQuest in the restaurant example:
      ``sorted_allowed=False`` (Section 7).
    """

    sorted_allowed: bool = True
    random_allowed: bool = True


@dataclass
class AccessStats:
    """Snapshot of a session's accounting."""

    sorted_accesses: int = 0
    random_accesses: int = 0
    sorted_by_list: dict[int, int] = field(default_factory=dict)
    random_by_list: dict[int, int] = field(default_factory=dict)
    middleware_cost: float = 0.0
    depth: int = 0
    distinct_objects_seen: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"s={self.sorted_accesses} r={self.random_accesses} "
            f"cost={self.middleware_cost:g} depth={self.depth}"
        )


@dataclass(frozen=True)
class SortedBatch:
    """Result of one :meth:`AccessSession.sorted_access_batch` call.

    ``objects[p]`` / ``grades[p]`` is the ``p``-th entry popped;
    ``rows`` holds the backing row indices when the database is columnar
    (``None`` on the scalar backend), letting callers hand them back to
    :meth:`AccessSession.random_access_batch` to skip id interning.
    """

    list_index: int
    objects: list
    grades: np.ndarray
    rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.objects)

    def __bool__(self) -> bool:
        return bool(self.objects)


class AccessSession:
    """Accounted, capability-checked access to one database.

    Parameters
    ----------
    database:
        The database to expose.
    cost_model:
        Access costs; defaults to ``cS = cR = 1``.
    capabilities:
        Either a single :class:`ListCapabilities` applied to every list or
        a sequence of per-list capabilities.
    forbid_wild_guesses:
        When true, random access to an object not previously returned by
        *any* sorted access raises :class:`WildGuessError`.
    record_trace:
        When true, every access is appended to :attr:`trace`.
    budget:
        Optional :class:`~repro.middleware.cost.QueryBudget`.  The
        session never enforces it itself -- engines poll
        :attr:`budget_exceeded` at consistent points and halt with
        ``HaltReason.DEADLINE`` -- but it lives here so one object
        travels with the session through ``run_on`` and the async
        facade.
    survive_list_loss:
        When true, a :class:`ServiceUnavailableError` raised by the
        backing store during *sorted* access marks the list as lost and
        reports exhaustion (``None``) instead of propagating; *random*
        access to a lost list raises :class:`ListLostError` so the
        engines can switch to their degraded completion path.  Off by
        default: a plain session fails loudly, exactly as before.
    """

    def __init__(
        self,
        database: Database,
        cost_model: CostModel = UNIT_COSTS,
        capabilities: ListCapabilities | Sequence[ListCapabilities] | None = None,
        forbid_wild_guesses: bool = False,
        record_trace: bool = False,
        *,
        budget: QueryBudget | None = None,
        survive_list_loss: bool = False,
    ):
        self._db = database
        self._cost_model = cost_model
        m = database.num_lists
        if capabilities is None:
            self._capabilities = [ListCapabilities()] * m
        elif isinstance(capabilities, ListCapabilities):
            self._capabilities = [capabilities] * m
        else:
            caps = list(capabilities)
            if len(caps) != m:
                raise ValueError(
                    f"got {len(caps)} capability entries for m={m} lists"
                )
            self._capabilities = caps
        self._forbid_wild_guesses = forbid_wild_guesses
        self._budget = budget
        self._survive_list_loss = survive_list_loss
        # list index -> depth consumed when the loss was detected
        self._lost_lists: dict[int, int] = {}
        self._positions = [0] * m
        self._sorted_by_list = [0] * m
        self._random_by_list = [0] * m
        self._seen_sorted: set[Hashable] = set()
        self.trace: AccessTrace | None = AccessTrace() if record_trace else None
        # the observability plane's bound-trajectory probe; engines feed
        # it at round/chunk boundaries when one is attached (it only
        # *reads* the session, so attaching one perturbs nothing)
        self.probe = None
        self._columnar: ColumnarDatabase | None = (
            database._speculation_store()
            if isinstance(database, ColumnarDatabase)
            else None
        )
        # a store's residency valve runs when a query opens and at every
        # chunk boundary (see budget_exceeded); in RAM there is none
        self._valve = None if self._columnar is None else self._columnar._valve
        if self._valve is not None:
            self._valve.check()

    # ------------------------------------------------------------------
    # convenience constructors for the paper's scenarios
    # ------------------------------------------------------------------
    @classmethod
    def no_random(
        cls, database: Database, cost_model: CostModel = UNIT_COSTS, **kwargs
    ) -> "AccessSession":
        """A session where random access is impossible (NRA's setting)."""
        return cls(
            database,
            cost_model,
            capabilities=ListCapabilities(random_allowed=False),
            **kwargs,
        )

    @classmethod
    def sorted_only_on(
        cls,
        database: Database,
        z: Iterable[int],
        cost_model: CostModel = UNIT_COSTS,
        **kwargs,
    ) -> "AccessSession":
        """A session where only lists in ``z`` allow sorted access
        (Section 7's setting; every list still allows random access)."""
        z = set(z)
        caps = [
            ListCapabilities(sorted_allowed=(i in z), random_allowed=True)
            for i in range(database.num_lists)
        ]
        if not any(c.sorted_allowed for c in caps):
            raise ValueError("Z must contain at least one list (|Z| >= 1)")
        return cls(database, cost_model, capabilities=caps, **kwargs)

    # ------------------------------------------------------------------
    # shape and capability introspection (free of charge)
    # ------------------------------------------------------------------
    @property
    def num_lists(self) -> int:
        return self._db.num_lists

    @property
    def num_objects(self) -> int:
        """``N``.  The paper's model takes the database size as known to
        the algorithm (it appears in the cost bounds); NRA uses it to
        decide whether unseen objects remain."""
        return self._db.num_objects

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def capabilities(self, list_index: int) -> ListCapabilities:
        self._check_list(list_index)
        return self._capabilities[list_index]

    @property
    def sorted_lists(self) -> list[int]:
        """Indices of lists that allow sorted access (the set ``Z``)."""
        return [
            i for i, c in enumerate(self._capabilities) if c.sorted_allowed
        ]

    # ------------------------------------------------------------------
    # the two access modes
    # ------------------------------------------------------------------
    def sorted_access(self, list_index: int):
        """Pop the next entry of list ``list_index``.

        Returns ``(object, grade)`` or ``None`` once the list is exhausted
        (exhaustion is free; only returned entries are charged).
        """
        self._check_open()
        self._check_list(list_index)
        if not self._capabilities[list_index].sorted_allowed:
            raise CapabilityError("sorted", list_index)
        if list_index in self._lost_lists:
            return None
        position = self._positions[list_index]
        try:
            entry = self._db.sorted_entry(list_index, position)
        except ServiceUnavailableError:
            if not self._survive_list_loss:
                raise
            self._lost_lists[list_index] = position
            return None
        if entry is None:
            return None
        self._positions[list_index] = position + 1
        self._sorted_by_list[list_index] += 1
        obj, grade = entry
        self._seen_sorted.add(obj)
        if self.trace is not None:
            self.trace.record(
                AccessEvent(
                    SORTED, list_index, obj, grade, position, self.middleware_cost
                )
            )
        return entry

    def random_access(self, list_index: int, obj: Hashable) -> float:
        """Fetch the grade of ``obj`` in list ``list_index``.

        Every call is charged, including repeats for the same pair -- the
        bounded-buffer TA of Section 4 relies on exactly that behaviour.
        """
        self._check_open()
        self._check_list(list_index)
        if not self._capabilities[list_index].random_allowed:
            raise CapabilityError("random", list_index)
        if list_index in self._lost_lists:
            raise ListLostError(f"list-{list_index}", list_index)
        if self._forbid_wild_guesses and obj not in self._seen_sorted:
            raise WildGuessError(obj, list_index)
        try:
            grade = self._db.grade(obj, list_index)  # raises UnknownObjectError
        except ListLostError:
            raise
        except ServiceUnavailableError as exc:
            if not self._survive_list_loss:
                raise
            self._lost_lists[list_index] = self._positions[list_index]
            raise ListLostError(
                f"list-{list_index}", list_index, exc.attempts
            ) from exc
        self._random_by_list[list_index] += 1
        if self.trace is not None:
            self.trace.record(
                AccessEvent(
                    RANDOM, list_index, obj, grade, -1, self.middleware_cost
                )
            )
        return grade

    # ------------------------------------------------------------------
    # the batched access plane (same accounting, amortised overhead; see
    # the module docstring)
    # ------------------------------------------------------------------
    @property
    def supports_batches(self) -> bool:
        """True when batched accesses are served by array slices
        (columnar database).  The batch methods work either way; this
        flag lets algorithms pick their faster inner loop.  Trace
        recording composes with the fast path: batch calls then record
        batch-granularity events instead of per-access ones."""
        return self._columnar is not None

    def columnar_view(self) -> ColumnarDatabase | None:
        """The raw columnar storage, for *speculative* engine execution
        (``None`` unless :attr:`supports_batches`).

        Contract: reads through the view are uncharged and carry no
        model-level meaning.  An engine may scan ahead through the view
        to locate the exact round at which the paper's sequential
        algorithm halts, but every entry that influences its *output*
        must afterwards be realised -- and thereby charged -- through
        the session's (batched) access methods, consuming exactly the
        prefix the scalar reference loop would have consumed.  The
        reported :class:`AccessStats` therefore still describe the
        paper's algorithm faithfully; speculation is an engine-level
        device (in the spirit of hardware speculative execution), and
        the differential test suite holds the engines to bit-for-bit
        equality with the scalar reference loops -- results, halting
        reasons, and access accounting alike.
        """
        return self._columnar

    def sorted_access_batch(self, list_index: int, n: int) -> SortedBatch:
        """Pop up to ``n`` entries of list ``list_index``.

        Charges exactly the number of entries returned; a batch that
        overruns the end of the list returns only the remaining entries
        (possibly zero), and exhaustion itself stays free of charge.
        """
        self._check_open()
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n}")
        self._check_list(list_index)
        if not self._capabilities[list_index].sorted_allowed:
            raise CapabilityError("sorted", list_index)
        db = self._columnar
        if db is None:
            objects: list = []
            grades: list[float] = []
            for _ in range(n):
                entry = self.sorted_access(list_index)
                if entry is None:
                    break
                objects.append(entry[0])
                grades.append(entry[1])
            return SortedBatch(
                list_index, objects, np.asarray(grades, dtype=np.float64)
            )
        count = min(n, db.num_objects - self._positions[list_index])
        if count <= 0:
            return SortedBatch(
                list_index, [], np.empty(0, dtype=np.float64), None
            )
        rows, grades, objects = self._take_sorted(db, list_index, count)
        return SortedBatch(list_index, objects, grades, rows)

    def _take_sorted(self, db: ColumnarDatabase, list_index: int, count: int):
        """Charge the next ``count`` (> 0, in range) entries of list
        ``list_index`` on the columnar fast path; returns their rows,
        grades and object ids."""
        position = self._positions[list_index]
        rows = db._order_rows[list_index][position : position + count]
        grades = db._order_grades[list_index][position : position + count]
        # the slice views the database's own arrays; freeze it so a
        # mutating caller cannot corrupt the shared orderings
        rows.flags.writeable = False
        grades.flags.writeable = False
        objects = db.ids_for_rows(rows)
        self._positions[list_index] = position + count
        self._sorted_by_list[list_index] += count
        self._seen_sorted.update(objects)
        if self.trace is not None:
            self.trace.record(
                BatchAccessEvent(
                    SORTED,
                    list_index,
                    tuple(objects),
                    tuple(grades.tolist()),
                    position,
                    self.middleware_cost,
                )
            )
        return rows, grades, objects

    def random_access_across(
        self, obj: Hashable, lists: Sequence[int]
    ) -> list[float]:
        """Fetch ``obj``'s grade in each of ``lists``, charging one
        random access per list, in list order -- semantically identical
        to calling :meth:`random_access` in a loop (which is exactly
        what this base implementation does).

        This is the access shape of TA's resolution step and CA's
        random phase: one object, its ``m - 1`` (or missing) fields.
        Sessions over remote services override it to issue the per-list
        round trips *concurrently* while replaying the charges in list
        order (see
        :meth:`~repro.services.session.AsyncAccessSession.random_access_across`),
        so the paper's scalar loops gain the overlap win without
        touching their accounting.
        """
        return [self.random_access(i, obj) for i in lists]

    def random_access_batch(
        self,
        list_index: int,
        objects: Sequence[Hashable] | None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fetch the grades of ``objects`` in list ``list_index``,
        charging one random access per object (repeats included).

        ``rows`` may carry the columnar row indices (e.g. from a
        :class:`SortedBatch`) to skip the id interning table; at least
        one of ``objects``/``rows`` must be given.  If the no-wild-guess
        certificate is armed and some object was never seen under sorted
        access, the objects *before* it are charged (their grades were
        already served), then :class:`WildGuessError` is raised --
        exactly the accounting of the equivalent scalar loop.
        """
        self._check_open()
        self._check_list(list_index)
        if not self._capabilities[list_index].random_allowed:
            raise CapabilityError("random", list_index)
        def replay_scalar() -> np.ndarray:
            # per-object scalar accesses: identical charging, including
            # the partially-charged prefix when a call raises mid-batch
            return np.array(
                [self.random_access(list_index, obj) for obj in objects],
                dtype=np.float64,
            )

        db = self._columnar
        if db is None:
            if objects is None:
                raise ValueError(
                    "objects may be omitted only on the columnar fast path"
                )
            return replay_scalar()
        if rows is None:
            if objects is None:
                raise ValueError("need objects or rows")
            try:
                rows = db.rows_for(objects)
            except (UnknownObjectError, TypeError):
                # unknown object somewhere in the batch
                return replay_scalar()
        if self._forbid_wild_guesses:
            if objects is None:
                objects = db.ids_for_rows(rows)
            seen = self._seen_sorted
            for prefix, obj in enumerate(objects):
                if obj not in seen:
                    self._random_by_list[list_index] += prefix
                    if self.trace is not None and prefix:
                        # the scalar loop would have recorded the
                        # charged prefix before raising; mirror it as
                        # one batch event
                        prefix_rows = rows[:prefix]
                        self.trace.record(
                            BatchAccessEvent(
                                RANDOM,
                                list_index,
                                tuple(objects[:prefix]),
                                tuple(
                                    db._gather(
                                        prefix_rows, list_index
                                    ).tolist()
                                ),
                                -1,
                                self.middleware_cost,
                            )
                        )
                    raise WildGuessError(obj, list_index)
        grades = db._gather(rows, list_index)
        self._random_by_list[list_index] += len(rows)
        if self.trace is not None:
            if objects is None:
                objects = db.ids_for_rows(rows)
            self.trace.record(
                BatchAccessEvent(
                    RANDOM,
                    list_index,
                    tuple(objects),
                    tuple(grades.tolist()),
                    -1,
                    self.middleware_cost,
                )
            )
        return grades

    def charge_schedule(
        self,
        counts: Sequence[int],
        phases: Sequence[tuple[int, int, Sequence[int]]],
        consumed: int,
    ) -> None:
        """Charge one speculated chunk of lockstep rounds, with the
        random-access phases spliced into it, in one call.

        List ``i`` contributes one sorted entry per round, ``counts[i]``
        at most (fewer once it nears its end).  Each phase ``(round,
        row, lists)``, in round order, random-accesses the object at
        columnar row ``row`` on each of ``lists`` after the chunk's
        first ``round`` rounds.  The call charges, in order: the sorted
        prefix up to each phase, list by list; that phase's random
        accesses; and finally the rest of the first ``consumed``
        rounds.  That is the scalar lockstep loop's charging order, so
        the no-wild-guess certificate sees each target's sorted
        appearance before its random accesses.  Only a trace and the
        certificate can observe that order; without either, each
        list's sorted prefix is charged as one run, and the final
        accounting is the same.

        The checks are those of the calls it replaces, each made before
        the access it guards is charged: the cancellation hook, the
        list range, sorted capability on every list (a list that
        refuses it raises in the schedule's first round, after the
        lists before it took theirs, as the lockstep loop does), random
        capability and the wild-guess certificate per random access.
        A check that fails raises with exactly the prefix before it
        charged.  With a trace, each per-list sorted run records one
        :class:`~repro.middleware.trace.BatchAccessEvent` and each
        random access another -- what ``sorted_access_batch`` and
        ``random_access_batch`` would have recorded.  Columnar fast
        path only (:attr:`supports_batches`).
        """
        self._check_open()
        db = self._columnar
        if db is None:
            raise ValueError("charge_schedule needs the columnar fast path")
        caps = self._capabilities
        for i in range(len(counts)):
            self._check_list(i)
            if consumed and not caps[i].sorted_allowed:
                # the lockstep loop refuses in the first round, after
                # the lists before it took their entries
                self._charge_rounds(db, counts[:i], 0, 1)
                raise CapabilityError("sorted", i)
        trace = self.trace
        # a trace (event order) and the certificate (the seen set) see
        # the sorted prefix of each phase realised before its randoms;
        # with neither, the randoms commute with the sorted charges,
        # which then come as one run per list
        exact = trace is not None or self._forbid_wild_guesses
        random_by_list = self._random_by_list
        charged = 0
        for upto, row, lists in phases:
            if exact:
                charged = self._charge_rounds(db, counts, charged, upto)
                obj = db.ids_for_rows(np.asarray([row], dtype=np.intp))[0]
            for j in lists:
                if not (0 <= j < len(caps) and caps[j].random_allowed):
                    # the lockstep loop charged the phase's sorted
                    # prefix before it met the refusal
                    self._charge_rounds(db, counts, charged, upto)
                    self._check_list(j)
                    raise CapabilityError("random", j)
                if self._forbid_wild_guesses and obj not in self._seen_sorted:
                    raise WildGuessError(obj, j)
                random_by_list[j] += 1
                if trace is not None:
                    grade = db._gather(np.asarray([row], dtype=np.intp), j)
                    trace.record(
                        BatchAccessEvent(
                            RANDOM,
                            j,
                            (obj,),
                            tuple(grade.tolist()),
                            -1,
                            self.middleware_cost,
                        )
                    )
        self._charge_rounds(db, counts, charged, consumed)

    def _charge_rounds(
        self, db: ColumnarDatabase, counts: Sequence[int], done: int, upto: int
    ) -> int:
        """Charge a schedule's lockstep rounds ``done`` to ``upto``, list
        by list; returns the number of rounds now charged."""
        for i, c in enumerate(counts):
            n = min(upto, c) - min(done, c)
            if n > 0:
                self._take_sorted(db, i, n)
        return max(done, upto)

    # ------------------------------------------------------------------
    # cursor state
    # ------------------------------------------------------------------
    def position(self, list_index: int) -> int:
        """Number of entries consumed from list ``list_index``."""
        self._check_list(list_index)
        return self._positions[list_index]

    @property
    def depth(self) -> int:
        """``d = max_i d_i``, the paper's notion of the depth reached."""
        return max(self._positions)

    def exhausted(self, list_index: int) -> bool:
        self._check_list(list_index)
        if list_index in self._lost_lists:
            return True
        return self._positions[list_index] >= self._db.num_objects

    @property
    def all_sorted_exhausted(self) -> bool:
        """True when every sorted-capable list has been fully consumed."""
        lists = self.sorted_lists
        return bool(lists) and all(self.exhausted(i) for i in lists)

    @property
    def objects_seen_sorted(self) -> int:
        """Number of distinct objects seen under sorted access so far."""
        return len(self._seen_sorted)

    def seen_under_sorted(self, obj: Hashable) -> bool:
        return obj in self._seen_sorted

    # ------------------------------------------------------------------
    # resilience state
    # ------------------------------------------------------------------
    @property
    def budget(self) -> QueryBudget | None:
        return self._budget

    @property
    def budget_exceeded(self) -> bool:
        """True once the attached :class:`QueryBudget` has expired (always
        false without one).  Engines poll this at round/chunk boundaries,
        which is also where a store's residency valve runs (see
        :mod:`repro.store.valve`); the valve never changes the answer."""
        if self._valve is not None:
            self._valve.check()
        return self._budget is not None and self._budget.expired(
            self.middleware_cost
        )

    @property
    def survive_list_loss(self) -> bool:
        return self._survive_list_loss

    @property
    def lost_lists(self) -> dict[int, int]:
        """Lists declared lost, mapped to the depth consumed at loss time
        (a copy; mutations don't write through)."""
        return dict(self._lost_lists)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def sorted_accesses(self) -> int:
        return sum(self._sorted_by_list)

    @property
    def random_accesses(self) -> int:
        return sum(self._random_by_list)

    @property
    def middleware_cost(self) -> float:
        return self._cost_model.cost(self.sorted_accesses, self.random_accesses)

    def stats(self) -> AccessStats:
        return AccessStats(
            sorted_accesses=self.sorted_accesses,
            random_accesses=self.random_accesses,
            sorted_by_list={
                i: n for i, n in enumerate(self._sorted_by_list) if n
            },
            random_by_list={
                i: n for i, n in enumerate(self._random_by_list) if n
            },
            middleware_cost=self.middleware_cost,
            depth=self.depth,
            distinct_objects_seen=len(self._seen_sorted),
        )

    def _check_open(self) -> None:
        """Hook called by every charging method before it charges
        anything; cancellable sessions raise here so a dead query
        charges nothing further."""

    def _check_list(self, list_index: int) -> None:
        if not (0 <= list_index < self._db.num_lists):
            raise UnknownListError(list_index, self._db.num_lists)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AccessSession {self._db!r} s={self.sorted_accesses} "
            f"r={self.random_accesses} cost={self.middleware_cost:g}>"
        )
