"""Real transport: the wire protocol spanning actual processes.

PR 4's :mod:`repro.services` made the middleware a client of
*asynchronous* graded sources, but every source was still an
in-process simulation.  This package is the missing half of the
paper's deployment shape: the ``m`` autonomous subsystems live in
other processes, and every sorted page and random-access probe is
serialized, framed, and shipped over a TCP socket.

* the server side is the one daemon, ``python -m repro.server``: its
  :class:`~repro.server.wire.QueryServer` answers the source ops
  (``meta``/``page``/``random``/``run_page``) straight from the
  database it serves queries over, on the :class:`FrameServer`
  chassis of :mod:`repro.transport.frames`.
* :mod:`repro.transport.client` -- :class:`TransportClient` (pooled
  multiplexed connections, connection-failure retry, error-taxonomy
  mapping), :class:`NetworkGradedSource` (a real
  :class:`~repro.services.protocol.RemoteGradedSource`), and
  :class:`NetworkRunSource` (shard runs for
  :func:`~repro.services.assemble.fetch_merged_orders`).
* :mod:`repro.transport.harness` -- :class:`ServerProcess`, the
  subprocess-spawning test harness: it persists a database with
  ``save_store`` and spawns that daemon on it.

The wire codecs live in :mod:`repro.middleware.serialization`; the
connect-level factories mirroring ``services_for_database`` /
``shard_run_services`` live in :mod:`repro.services.network`
(:func:`~repro.services.network.network_services`,
:func:`~repro.services.network.network_shard_runs`).

The parity contract (enforced by ``tests/test_transport.py``): a
session, drain or merge whose every source lives behind a real socket
is **bit-identical** -- items, halting, tie order, ``AccessStats`` --
to the same run over in-process simulated services.
"""

from .client import NetworkGradedSource, NetworkRunSource, TransportClient
from .frames import FrameConnection, FrameServer
from .harness import ServerProcess

__all__ = [
    "FrameServer",
    "FrameConnection",
    "TransportClient",
    "NetworkGradedSource",
    "NetworkRunSource",
    "ServerProcess",
]
