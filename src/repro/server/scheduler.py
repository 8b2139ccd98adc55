"""A cooperative scheduler for the query service's event loop.

Modeled on the classic single-loop media-player dispatcher: two
priority bands on one asyncio loop --

* **urgent** calls run first, FIFO (admission dispatch: "a slot just
  freed, start the next queued query");
* **timed** calls run when due (housekeeping sweeps, long-poll
  timeouts, delayed retries).

When both bands are empty the driver sleeps until it is poked or the
next timed call falls due, so an idle scheduler costs nothing.
Recurring work re-arms itself with :meth:`Scheduler.call_later`.

The scheduler is loop-affine: :meth:`start` must run on the loop that
will host it, and ``call_soon``/``call_later`` must be invoked on that
loop (cross-thread callers go through ``loop.call_soon_threadsafe``).
Callbacks are plain callables; exceptions are caught and kept in
:attr:`failures` (bounded) so one broken housekeeping hook cannot kill
the service.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from typing import Callable

__all__ = ["Scheduler", "ScheduledCall"]

#: how many callback exceptions :attr:`Scheduler.failures` retains
MAX_FAILURES = 32


class ScheduledCall:
    """Handle for one scheduled callback; ``cancel()`` is idempotent
    and a cancelled call is guaranteed not to run."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    """See the module docstring.

    Lifecycle: construct anywhere, :meth:`start` on the host loop,
    ``await`` :meth:`stop` to drain.
    """

    def __init__(self):
        self._urgent: deque[ScheduledCall] = deque()
        # (due, seq, call) -- seq breaks ties FIFO among equal due times
        self._timed: list[tuple[float, int, ScheduledCall]] = []
        self._seq = 0
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        #: exceptions raised by callbacks, most recent last (bounded)
        self.failures: deque[BaseException] = deque(maxlen=MAX_FAILURES)
        #: counters for observability: calls run per band
        self.ran = {"urgent": 0, "timed": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Scheduler":
        """Start the driver task on the running loop (idempotent)."""
        if self._task is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = False
        self._task = self._loop.create_task(self._drive())
        return self

    async def stop(self) -> None:
        """Stop the driver; pending calls are dropped (idempotent)."""
        task = self._task
        if task is None:
            return
        self._stopping = True
        assert self._wake is not None
        self._wake.set()
        await asyncio.gather(task, return_exceptions=True)
        self._task = None

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    # ------------------------------------------------------------------
    # scheduling (loop-side)
    # ------------------------------------------------------------------
    def call_soon(self, fn: Callable, *args) -> ScheduledCall:
        """Run ``fn(*args)`` on the next cycle, before any timed
        work."""
        call = ScheduledCall(fn, args)
        self._urgent.append(call)
        self._poke()
        return call

    def call_later(self, delay: float, fn: Callable, *args) -> ScheduledCall:
        """Run ``fn(*args)`` once ``delay`` seconds have passed (never
        before, possibly later if the loop is busy)."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        call = ScheduledCall(fn, args)
        loop = self._loop or asyncio.get_event_loop()
        self._seq += 1
        heapq.heappush(self._timed, (loop.time() + delay, self._seq, call))
        self._poke()
        return call

    def pending(self) -> dict:
        """Band sizes, for tests and status endpoints."""
        return {
            "urgent": len(self._urgent),
            "timed": len(self._timed),
        }

    # ------------------------------------------------------------------
    # the drive loop
    # ------------------------------------------------------------------
    def _poke(self) -> None:
        if self._wake is not None:
            self._wake.set()

    def _invoke(self, band: str, call: ScheduledCall) -> None:
        if call.cancelled:
            return
        self.ran[band] += 1
        try:
            call.fn(*call.args)
        except BaseException as exc:
            self.failures.append(exc)

    async def _drive(self) -> None:
        assert self._loop is not None and self._wake is not None
        while not self._stopping:
            # band 1: drain every urgent call queued so far (calls a
            # callback enqueues run in this same cycle, still ahead of
            # timed work)
            while self._urgent and not self._stopping:
                self._invoke("urgent", self._urgent.popleft())
            # band 2: run every due timed call
            now = self._loop.time()
            while self._timed and self._timed[0][0] <= now:
                _, __, call = heapq.heappop(self._timed)
                self._invoke("timed", call)
            if self._urgent:
                continue  # a timed callback queued urgent work
            # nothing to do: sleep until poked or the next timed call
            self._wake.clear()
            if self._urgent or self._stopping:
                continue
            timeout = None
            if self._timed:
                timeout = max(0.0, self._timed[0][0] - self._loop.time())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return f"<Scheduler {state} {self.pending()}>"
