"""Transport-backed service factories: the network twins of
:func:`~repro.services.assemble.services_for_database` and
:func:`~repro.services.assemble.shard_run_services`.

Where the simulated factories wrap *local data* as services, these
connect to a running :class:`~repro.server.wire.QueryServer` over a
database -- the ``python -m repro.server`` daemon, in this process,
another process, or another machine -- and return
sources satisfying the very same contracts -- so
:class:`~repro.services.session.AsyncAccessSession`,
:func:`~repro.services.assemble.assemble_remote_database` and
:func:`~repro.services.assemble.fetch_merged_orders` run over real
sockets unmodified::

    with ServerProcess(db, num_shards=2) as server:
        sources = network_services(server.address)
        with AsyncAccessSession(sources) as session:
            result = ThresholdAlgorithm().run(session, AVERAGE, 10)

Both factories are synchronous (they fetch the server manifest on a
private throwaway loop); the sources they return are used from
whatever event loop ends up driving them -- the underlying
:class:`~repro.transport.client.TransportClient` keeps one connection
pool per loop.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from .simulated import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..transport.client import (
        NetworkGradedSource,
        NetworkRunSource,
        TransportClient,
    )

__all__ = ["network_client", "network_services", "network_shard_runs"]


def network_client(
    address: tuple[str, int],
    *,
    retry: RetryPolicy | None = None,
    request_timeout: float = 30.0,
    connect_timeout: float = 5.0,
    pool_size: int = 1,
) -> TransportClient:
    """A :class:`~repro.transport.client.TransportClient` for
    ``address`` (``(host, port)``, e.g. ``server.address``)."""
    # imported lazily: repro.transport itself imports from this package
    from ..transport.client import TransportClient

    host, port = address
    return TransportClient(
        host,
        int(port),
        retry=retry,
        request_timeout=request_timeout,
        connect_timeout=connect_timeout,
        pool_size=pool_size,
    )


def network_services(
    address: tuple[str, int] | None = None,
    *,
    client: TransportClient | None = None,
    **client_kwargs,
) -> list[NetworkGradedSource]:
    """One :class:`~repro.transport.client.NetworkGradedSource` per
    list the server exports, in list order -- the transport twin of
    :func:`~repro.services.assemble.services_for_database` (give
    ``client`` to share connections with other factories)."""
    client = _client(address, client, client_kwargs)
    return asyncio.run(client.sources())


def network_shard_runs(
    address: tuple[str, int] | None = None,
    *,
    client: TransportClient | None = None,
    **client_kwargs,
) -> list[list[NetworkRunSource]]:
    """The server's ``[list][shard]`` run grid as network sources --
    the transport twin of
    :func:`~repro.services.assemble.shard_run_services`, feeding
    :func:`~repro.services.assemble.fetch_merged_orders` directly."""
    client = _client(address, client, client_kwargs)
    return asyncio.run(client.shard_runs())


def _client(
    address: tuple[str, int] | None,
    client: TransportClient | None,
    client_kwargs: dict,
) -> TransportClient:
    if client is not None:
        if address is not None or client_kwargs:
            raise ValueError(
                "give either a client or an address (+ client options), "
                "not both"
            )
        return client
    if address is None:
        raise ValueError("need a server address or a client")
    return network_client(address, **client_kwargs)
