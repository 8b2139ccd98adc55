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

NRA is CA with no random-access phase (Section 8.2): it runs the bound
engine of :mod:`repro.core.ca` (:func:`~repro.core.ca.run_bound_engine`)
with no phase period and its own ``theta``, so both algorithms share
one scalar reference loop, one speculative chunked engine for columnar
sessions (bit-for-bit equivalent to the scalar loop) and one result
assembly.
"""

from __future__ import annotations

from ..aggregation.base import AggregationFunction
from ..middleware.access import AccessSession, ListCapabilities
from ..middleware.cost import UNIT_COSTS, CostModel
from ..middleware.database import Database
from .base import TopKAlgorithm
from .ca import run_bound_engine
from .result import TopKResult

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
        return run_bound_engine(
            session,
            aggregation,
            k,
            name=self.name,
            naive_bookkeeping=self.naive_bookkeeping,
            halt_check_interval=self.halt_check_interval,
            theta=self.theta,
        )
