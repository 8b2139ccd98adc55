"""Continuous top-k views over mutable databases.

A :class:`LiveView` registers a standing query -- algorithm,
aggregation, ``k`` -- against a :class:`~repro.middleware.mutable.
MutableDatabase` and keeps its result set current as the database
mutates, firing ``add`` / ``change`` / ``remove`` callbacks for every
observable difference (Miro's ``DynamicDatabase`` view shape).

The maintenance is *certified incremental*: alongside the result the
view maintains a **bound certificate** -- the exact overall grade of
its weakest member, computed from ground truth so it is engine-
independent (NRA-family results carry no exact grades).  A mutation
re-runs the engine only when it can possibly change the result:

* an **insert** whose overall grade reaches the floor,
* any mutation touching a current **member**,
* an **update** lifting a non-member to (or above) the floor,
* anything at all while the view holds fewer than ``k`` items.

Every other mutation -- the overwhelming majority in a skewed update
stream -- is provably below the top-k window and costs O(m) aggregate
evaluation, no engine run.  Correctness does not depend on the
certificate being tight, only sound: whenever the view skips a
refresh, its result set is *bit-identical* (items, grades, tie order)
to a from-scratch run on the post-mutation database, which the
stateful hypothesis suite asserts after every step.

The view recomputes by re-running the registered engine (its stats and
halt data are exposed through :attr:`LiveView.result`), but *presents*
the result in the database's canonical order -- overall grade
descending, ties by list-0 position, exactly
:meth:`~repro.middleware.database.Database.top_k` -- with exact
grades.  Engines are allowed to break ties arbitrarily (first-come, as
the paper permits) and their choices shift with list layout, so raw
engine tie order is not maintainable across certified skips; the
canonical order provably is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Hashable, Optional

from .core.base import TopKAlgorithm
from .core.result import RankedItem, TopKResult
from .middleware.access import AccessStats
from .middleware.cost import CostModel, UNIT_COSTS
from .middleware.errors import DatabaseError
from .middleware.mutable import MutableDatabase, MutationEvent
from .obs import NULL_OBS

__all__ = ["LiveView", "ViewEvent"]


@dataclass(frozen=True)
class ViewEvent:
    """One observable change of a view's result set.

    ``kind`` is ``"add"`` / ``"change"`` / ``"remove"``; ``rank`` is
    the object's position in the new result (``None`` for removes);
    ``grade`` is the exact overall grade (views always present exact
    canonical-order results, whatever the engine reports).
    ``version`` is the database version the event reflects.
    """

    kind: str
    obj: Hashable
    rank: Optional[int]
    grade: Optional[float]
    lower: float
    upper: float
    version: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "obj": self.obj,
            "rank": self.rank,
            "grade": self.grade,
            "lower": self.lower,
            "upper": self.upper,
            "version": self.version,
        }


Listener = Callable[[ViewEvent], None]


class LiveView:
    """A continuously-maintained top-k result over a mutable database.

    Parameters
    ----------
    database:
        Any :class:`~repro.middleware.mutable.MutableDatabase` (which
        is also a read-plane :class:`~repro.middleware.database.
        Database`).
    algorithm:
        A :class:`~repro.core.base.TopKAlgorithm` instance or a
        zero-argument factory returning one (a factory gets a fresh
        engine per refresh, which keeps stateful engines honest).
    on_add, on_change, on_remove, on_event:
        Optional callbacks; ``on_event`` receives every
        :class:`ViewEvent`, the kind-specific ones only theirs.  The
        initial computation is a *snapshot*, not a delta: it fires no
        events (read :attr:`result` for the starting state).

    Counters ``mutations_seen``, ``refreshes`` and ``events_emitted``
    expose the incremental win (the bench measures
    ``refreshes / mutations_seen``).  Pass ``obs=`` to mirror them --
    plus certified screens (mutations the bound certificate proved
    irrelevant) -- into a metrics registry.  Call :meth:`close` to
    detach from the database's listener list.
    """

    def __init__(
        self,
        database: MutableDatabase,
        algorithm,
        aggregation,
        k: int,
        *,
        cost_model: CostModel = UNIT_COSTS,
        on_add: Optional[Listener] = None,
        on_change: Optional[Listener] = None,
        on_remove: Optional[Listener] = None,
        on_event: Optional[Listener] = None,
        obs=None,
    ):
        if not isinstance(database, MutableDatabase):
            raise DatabaseError(
                "LiveView requires a MutableDatabase; build one with "
                "MutableColumnarDatabase.from_database(db)"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._db = database
        if isinstance(algorithm, TopKAlgorithm):
            self._make_algorithm = lambda: algorithm
        else:
            self._make_algorithm = algorithm
        self._aggregation = aggregation
        self._k = int(k)
        self._cost_model = cost_model
        self._on_add = on_add
        self._on_change = on_change
        self._on_remove = on_remove
        self._on_event = on_event
        self._closed = False
        self.mutations_seen = 0
        self.refreshes = 0
        self.events_emitted = 0
        obs = obs if obs is not None else NULL_OBS
        self._m_mutations = obs.counter(
            "repro_view_mutations_seen_total",
            help="mutations observed by live views",
        )
        self._m_refreshes = obs.counter(
            "repro_view_refreshes_total",
            help="engine re-runs (certificate demanded a refresh)",
        )
        self._m_screens = obs.counter(
            "repro_view_certified_screens_total",
            help="mutations screened out by the bound certificate",
        )
        self._m_events = obs.counter(
            "repro_view_events_total",
            help="add/change/remove deltas emitted",
        )
        self._result: TopKResult | None = None
        self._members: dict[Hashable, RankedItem] = {}
        self._ranks: dict[Hashable, int] = {}
        self._floor = 0.0
        self._refresh(emit=False)
        database.add_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def result(self) -> TopKResult:
        """The current engine result (stats are those of the *last*
        refresh, not a running total)."""
        assert self._result is not None
        return self._result

    @property
    def items(self) -> list[RankedItem]:
        return list(self.result.items)

    @property
    def k(self) -> int:
        return self._k

    @property
    def version(self) -> int:
        """Database version this view currently reflects."""
        return self._version

    @property
    def floor(self) -> float:
        """The bound certificate: exact overall grade of the weakest
        member (0.0 while the view holds fewer than ``k`` items)."""
        return self._floor

    def close(self) -> None:
        """Detach from the database; the view stops updating."""
        if not self._closed:
            self._closed = True
            self._db.remove_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _overall(self, grades) -> float:
        return float(self._aggregation.aggregate(tuple(grades)))

    def _refresh(self, emit: bool) -> None:
        db = self._db
        n = db.num_objects
        if n == 0:
            result = TopKResult(
                algorithm="empty",
                k=self._k,
                items=[],
                stats=AccessStats(),
                rounds=0,
                depth=0,
                halt_reason="exhausted",
                max_buffer_size=0,
            )
        else:
            algorithm = self._make_algorithm()
            result = algorithm.run_on(
                db, self._aggregation, min(self._k, n), self._cost_model
            )
            # canonicalize the presentation: engines break ties
            # arbitrarily (first-come, paper-sanctioned) and their tie
            # choices depend on list layout, which *unrelated* mutations
            # shift -- so a stale-but-correct view and a fresh run could
            # disagree on tie placement.  The view therefore presents
            # the database's canonical order (overall grade descending,
            # ties by list-0 position, exactly ``Database.top_k``),
            # which is invariant under every certified-skip mutation.
            # The raw engine result's stats/halt data are kept.
            result = replace(
                result,
                items=[
                    RankedItem(
                        obj=obj, grade=g, lower_bound=g, upper_bound=g
                    )
                    for obj, g in db.top_k(
                        self._aggregation, min(self._k, n)
                    )
                ],
            )
        self.refreshes += 1
        old_members = self._members
        old_ranks = self._ranks
        new_members = {item.obj: item for item in result.items}
        new_ranks = {
            item.obj: rank for rank, item in enumerate(result.items)
        }
        self._result = result
        self._members = new_members
        self._ranks = new_ranks
        self._version = db.version
        # the certificate: exact ground-truth floor, engine-independent
        if len(result.items) < self._k:
            self._floor = 0.0
        elif result.items:
            self._floor = min(
                self._overall(db.grade_vector(item.obj))
                for item in result.items
            )
        else:
            self._floor = 0.0
        if not emit:
            return
        version = self._version
        # removes first (in the old result order), then adds/changes in
        # the new order
        for obj, item in old_members.items():
            if obj not in new_members:
                self._fire(
                    ViewEvent(
                        "remove",
                        obj,
                        None,
                        item.grade,
                        item.lower_bound,
                        item.upper_bound,
                        version,
                    ),
                    self._on_remove,
                )
        for rank, item in enumerate(result.items):
            old = old_members.get(item.obj)
            if old is None:
                self._fire(
                    ViewEvent(
                        "add",
                        item.obj,
                        rank,
                        item.grade,
                        item.lower_bound,
                        item.upper_bound,
                        version,
                    ),
                    self._on_add,
                )
            elif (
                old.grade != item.grade
                or old.lower_bound != item.lower_bound
                or old.upper_bound != item.upper_bound
                or old_ranks.get(item.obj) != rank
            ):
                self._fire(
                    ViewEvent(
                        "change",
                        item.obj,
                        rank,
                        item.grade,
                        item.lower_bound,
                        item.upper_bound,
                        version,
                    ),
                    self._on_change,
                )

    def _fire(self, event: ViewEvent, specific: Optional[Listener]) -> None:
        self.events_emitted += 1
        self._m_events.inc()
        if specific is not None:
            specific(event)
        if self._on_event is not None:
            self._on_event(event)

    def _needs_refresh(self, event: MutationEvent) -> bool:
        # an incomplete window means any mutation can matter (a delete
        # of a non-member still cannot, but keep the rule simple: the
        # incomplete state is transient)
        if self._result is None or len(self._result.items) < min(
            self._k, self._db.num_objects + (1 if event.kind == "delete" else 0)
        ):
            return True
        member = event.obj in self._members
        if event.kind == "delete":
            return member
        if member:
            return True
        # non-member insert/update: can only enter the window by
        # reaching the floor; below it the result set is unchanged
        value = self._overall(event.grades)
        return value >= self._floor

    def _on_mutation(self, event: MutationEvent) -> None:
        if self._closed:
            return
        self.mutations_seen += 1
        self._m_mutations.inc()
        if self._needs_refresh(event):
            self._refresh(emit=True)
            self._m_refreshes.inc()
        else:
            # the certificate proved the mutation cannot change the
            # result: no engine run, just the version stamp
            self._m_screens.inc()
            self._version = event.version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LiveView k={self._k} members={len(self._members)} "
            f"v={self._version} refreshes={self.refreshes}>"
        )
