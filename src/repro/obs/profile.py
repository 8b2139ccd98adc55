"""Bound-trajectory profiling: the paper's cost model, per round.

A :class:`QueryProbe` rides on a session (``session.probe``) and is
fed by the engines at round boundaries -- the scalar loops after each
lockstep round, the speculative chunked engines after each charged
chunk commit.  Each :class:`RoundProfile` entry records what the paper
reasons about: how deep the sorted and random cursors moved, what the
move was charged (``s·cS + r·cR`` deltas), and where the bounds stood
-- the threshold ``τ`` (``t`` applied to the bottom values), the
worst-case floor ``W`` and best-case ceiling ``B`` when the engine has
them at hand.

The probe is strictly an *observer*: it reads the session's public
accounting (`sorted_accesses`, `random_accesses`, `middleware_cost`,
`depth`) and never issues an access, so attaching one cannot perturb
results, tie order, ``AccessStats``, or trace bytes (the differential
suite runs an instrumentation-on axis to enforce exactly that).

Charged-cost exactness: entries carry both the cumulative counters and
their per-round deltas.  :meth:`QueryProbe.total_cost` (and friends)
return the final cumulative value, so the profile's totals equal the
session's ``AccessStats`` / the service's ``QueryBill`` *bit-for-bit*;
with the integral cost models the suite uses, ``math.fsum`` of the
per-round deltas reproduces the same number exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

__all__ = ["RoundProfile", "QueryProbe"]


@dataclass(frozen=True)
class RoundProfile:
    """One charged step of a query: a single lockstep round of a scalar
    engine (``label="round"``), a committed chunk of a speculative
    engine spanning ``round_end - round_start`` rounds
    (``label="chunk"``), or the post-loop residual -- final resolution
    accesses charged after the last round (``label="final"``).

    ``sorted_n`` / ``random_n`` / ``cost`` are cumulative *after* the
    step; the ``*_delta`` fields are this step's charges.  ``tau`` is
    the threshold at the step's end; ``taus`` carries the full
    per-round trajectory inside a committed chunk; ``w`` / ``b`` are
    the worst/best-case bounds when the engine tracks them.
    """

    label: str
    round_start: int
    round_end: int
    sorted_n: int
    random_n: int
    cost: float
    sorted_delta: int
    random_delta: int
    cost_delta: float
    depth: int
    tau: float | None = None
    w: float | None = None
    b: float | None = None
    taus: tuple[float, ...] | None = None

    @property
    def rounds(self) -> int:
        return self.round_end - self.round_start

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "round_start": self.round_start,
            "round_end": self.round_end,
            "sorted": self.sorted_n,
            "random": self.random_n,
            "cost": self.cost,
            "sorted_delta": self.sorted_delta,
            "random_delta": self.random_delta,
            "cost_delta": self.cost_delta,
            "depth": self.depth,
            "tau": self.tau,
            "w": self.w,
            "b": self.b,
            "taus": None if self.taus is None else list(self.taus),
        }


class QueryProbe:
    """Accumulates :class:`RoundProfile` entries for one query.

    Attach as ``session.probe = QueryProbe(session)`` before running an
    engine; the engines feed it via :meth:`on_round` at their round /
    chunk boundaries and the runner seals it with :meth:`finish`.
    """

    __slots__ = (
        "_session", "entries", "halt_reason", "sample_every", "_steps",
        "_last_round", "_last_sorted", "_last_random", "_last_cost",
    )

    def __init__(self, session, *, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self._session = session
        self.entries: list[RoundProfile] = []
        self.halt_reason: str | None = None
        self.sample_every = sample_every
        self._steps = 0
        self._last_round = 0
        self._last_sorted = int(session.sorted_accesses)
        self._last_random = int(session.random_accesses)
        self._last_cost = float(session.middleware_cost)

    def _record(
        self,
        label: str,
        rounds_completed: int,
        tau: float | None,
        w: float | None,
        b: float | None,
        taus: tuple[float, ...] | None,
    ) -> None:
        session = self._session
        sorted_n = int(session.sorted_accesses)
        random_n = int(session.random_accesses)
        cost = float(session.middleware_cost)
        self.entries.append(
            RoundProfile(
                label=label,
                round_start=self._last_round,
                round_end=rounds_completed,
                sorted_n=sorted_n,
                random_n=random_n,
                cost=cost,
                sorted_delta=sorted_n - self._last_sorted,
                random_delta=random_n - self._last_random,
                cost_delta=cost - self._last_cost,
                depth=int(session.depth),
                tau=tau,
                w=w,
                b=b,
                taus=taus,
            )
        )
        self._last_round = rounds_completed
        self._last_sorted = sorted_n
        self._last_random = random_n
        self._last_cost = cost

    def on_round(
        self,
        rounds_completed: int,
        *,
        tau: float | None = None,
        w: float | None = None,
        b: float | None = None,
        taus: tuple[float, ...] | None = None,
    ) -> None:
        """Record the step that ended at round ``rounds_completed``.
        A multi-round step (chunked commit) passes the per-round ``taus``
        trajectory and is labelled a chunk.

        With ``sample_every=N > 1`` only every Nth step is recorded; a
        recorded entry's deltas then span the skipped steps (baselines
        advance only at record time), so the cumulative counters -- and
        hence ``total_*`` -- remain exact regardless of sampling, at
        1/N the entry volume.  Sampled spans are labelled ``sample``.
        """
        self._steps += 1
        if self._steps % self.sample_every:
            return
        if self.sample_every > 1:
            label = "sample"
        elif rounds_completed - self._last_round != 1 or taus:
            label = "chunk"
        else:
            label = "round"
        self._record(label, rounds_completed, tau, w, b, taus)

    def finish(self, halt_reason: Hashable | None = None) -> None:
        """Seal the profile.  Accesses charged since the last round
        boundary (TA-style final resolution, certificate finalization)
        become a ``final`` residual entry, so the profile's totals match
        the session's accounting exactly by construction.  A sealed
        probe lets go of its session (its totals are all recorded), and
        sealing it again is a no-op."""
        session = self._session
        if session is None:
            return
        if (
            int(session.sorted_accesses) != self._last_sorted
            or int(session.random_accesses) != self._last_random
            or float(session.middleware_cost) != self._last_cost
        ):
            self._record("final", self._last_round, None, None, None, None)
        self.halt_reason = None if halt_reason is None else str(halt_reason)
        self._session = None

    # ------------------------------------------------------------------
    # totals: cumulative, hence exactly the session's accounting
    # ------------------------------------------------------------------
    @property
    def total_sorted(self) -> int:
        return self.entries[-1].sorted_n if self.entries else self._last_sorted

    @property
    def total_random(self) -> int:
        return self.entries[-1].random_n if self.entries else self._last_random

    @property
    def total_cost(self) -> float:
        return self.entries[-1].cost if self.entries else self._last_cost

    @property
    def rounds(self) -> int:
        return self._last_round

    def as_dict(self) -> dict:
        return {
            "halt_reason": self.halt_reason,
            "rounds": self.rounds,
            "total_sorted": self.total_sorted,
            "total_random": self.total_random,
            "total_cost": self.total_cost,
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def format_table(self, limit: int | None = 24) -> str:
        """Human-readable per-round profile (the example's --metrics
        output)."""
        rows = [
            "rounds      kind   s(+)      r(+)      cost(+)      depth  tau"
        ]
        entries = self.entries if limit is None else self.entries[:limit]
        for e in entries:
            span = (
                f"{e.round_start}-{e.round_end}"
                if e.rounds > 1 else f"{e.round_end}"
            )
            tau = "-" if e.tau is None else f"{e.tau:.4f}"
            rows.append(
                f"{span:>10}  {e.label:>5}  "
                + f"{e.sorted_n}(+{e.sorted_delta})".ljust(10)
                + f"{e.random_n}(+{e.random_delta})".ljust(10)
                + f"{e.cost:g}(+{e.cost_delta:g})".ljust(13)
                + f"{e.depth:>5}  {tau}"
            )
        if limit is not None and len(self.entries) > limit:
            rows.append(f"... ({len(self.entries) - limit} more entries)")
        return "\n".join(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryProbe rounds={self.rounds} entries={len(self.entries)} "
            f"cost={self.total_cost:g} halt={self.halt_reason}>"
        )
