"""The concurrent top-k query service.

Everything below :mod:`repro.server` turns the paper's single-query
middleware into a *server*: many top-k queries in flight at once over
one set of backing graded sources, scheduled cooperatively on a single
asyncio event loop, with per-query billing.

* :mod:`repro.server.scheduler` -- :class:`Scheduler`: the cooperative
  two-band dispatcher (urgent / timed) the service's housekeeping
  rides on; it sleeps when there is nothing to do.
* :mod:`repro.server.scancache` -- :class:`ScanCache`: one
  :class:`~repro.services.session.SharedListScan` (one underlying
  sorted cursor) per list, shared by every concurrent query over that
  list, each reading it through its own
  :class:`~repro.services.session.ServiceSession`.  Sharing happens
  *below* the charged access plane, so each query is billed exactly
  the prefix it consumed; deeper queries' pages are uncharged
  speculation for shallower ones.
* :mod:`repro.server.service` -- :class:`QueryService`: admission
  (FIFO queue, bounded, :class:`~repro.middleware.errors.AdmissionError`
  when full), execution (the unmodified synchronous engines on a
  worker pool via ``run_on_loop``), cancellation, and billing
  (:class:`~repro.middleware.cost.QueryBill` per terminal query into a
  :class:`~repro.middleware.cost.BillingLedger`).
* :mod:`repro.server.wire` / :mod:`repro.server.client` --
  :class:`QueryServer` / :class:`QueryServiceClient`: the service over
  real sockets on the :class:`~repro.transport.frames.FrameServer`
  chassis.  ``python -m repro.server`` is the one daemon: the same
  port serves the database's sorted lists (the source ops, read
  straight from the database) and whole queries.

The parity contract (enforced by ``tests/test_server.py``): every
query of a concurrent mix -- any engine, any k, overlapping or
disjoint lists, shared or private scans -- returns **bit-identically**
the result and ``AccessStats`` of a solo scalar-reference run over the
same logical database.

Protocol v2 (``PROTOCOL_VERSION``) adds the write plane: services
backed by a :class:`~repro.middleware.mutable.MutableDatabase` accept
``mutate`` writes and ``subscribe`` standing queries (server-side
:class:`~repro.views.LiveView` instances), streaming add/change/remove
deltas to :class:`QueryServiceClient` subscribers via long-polled
``view_events`` -- and the parity contract extends to them: after any
mutation sequence a view's result set is bit-identical to a
from-scratch run on the post-mutation database.
"""

from .client import QueryOutcome, QueryServiceClient, ViewSnapshot
from .scancache import ScanCache
from .scheduler import ScheduledCall, Scheduler
from .service import (
    AGGREGATIONS,
    ALGORITHMS,
    QueryHandle,
    QueryService,
    QuerySpec,
    QueryStatus,
)
from .wire import (
    PROTOCOL_VERSION,
    QueryServer,
    decode_result,
    encode_result,
)

__all__ = [
    "Scheduler",
    "ScheduledCall",
    "ScanCache",
    "QueryService",
    "QuerySpec",
    "QueryHandle",
    "QueryStatus",
    "ALGORITHMS",
    "AGGREGATIONS",
    "PROTOCOL_VERSION",
    "QueryServer",
    "QueryServiceClient",
    "QueryOutcome",
    "ViewSnapshot",
    "encode_result",
    "decode_result",
]
