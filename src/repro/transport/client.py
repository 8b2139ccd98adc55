"""The wire-protocol client: remote graded sources over real sockets.

:class:`NetworkGradedSource` implements the
:class:`~repro.services.protocol.RemoteGradedSource` protocol against
the ``python -m repro.server`` daemon's source ops (any
:class:`~repro.server.wire.QueryServer` over a database), so everything
built on that protocol -- :class:`~repro.services.session.AsyncAccessSession`,
:func:`~repro.services.assemble.assemble_remote_database`,
:func:`~repro.services.assemble.drain_columns` -- runs across a real
process boundary *unmodified*.  :class:`NetworkRunSource` mirrors
:class:`~repro.services.simulated.ShardRunService` the same way for
:func:`~repro.services.assemble.fetch_merged_orders`.

Connections
-----------

All sources created from one :class:`TransportClient` share its
connection pool.  Connections are **multiplexed**: each request frame
carries an id, a background reader task routes response frames to the
matching waiter, so any number of concurrent requests (the session's
``m`` prefetch streams, a ``S x m`` shard drain) share ``pool_size``
sockets.  Because asyncio connections are bound to the loop that
created them, the pool is kept *per running loop* -- the same client
works from ``asyncio.run`` drains and from the session's private
background loop, opening fresh sockets for each.

Failure mapping
---------------

Two failure planes, deliberately distinct:

* **server-reported** failures (the serving source's latency/failure
  models, unknown objects) arrive as error frames and re-raise as the
  exact :mod:`repro.middleware.errors` type the in-process path would
  raise.  The server-side service already spent its own retry budget;
  the client never re-retries these, so scripted failure tests count
  identical service calls over the wire.
* **connection-level** failures (refusal, reset, EOF mid-frame,
  deadline) are mapped by
  :func:`~repro.middleware.errors.connection_error_to_service_error`
  and retried under the client's
  :class:`~repro.services.simulated.RetryPolicy` -- every request is a
  stateless read, so a retry on a fresh connection is always safe.
  Exhaustion (or refusal, the permanent verdict) raises the mapped
  error, *before* anything is charged: the session's served-prefix
  charging survives a server dying mid-stream.

A corrupt or oversized frame raises
:class:`~repro.middleware.errors.WireFormatError` and is never
retried: protocol violations are bugs, not weather.
"""

from __future__ import annotations

import asyncio
import weakref
from collections.abc import AsyncIterator, Sequence
from typing import Hashable

import numpy as np

from ..middleware.access import ListCapabilities
from ..obs.metrics import NULL_INSTRUMENT
from ..middleware.errors import (
    RemoteServiceError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
    UnknownObjectError,
    WireFormatError,
    connection_error_to_service_error,
)
from ..middleware.serialization import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    decode_message,
    decompress_frame_payload,
    encode_frame,
    frame_header_info,
)
from ..services.protocol import SortedPage
from ..services.simulated import RetryPolicy

__all__ = ["TransportClient", "NetworkGradedSource", "NetworkRunSource"]


class _Connection:
    """One multiplexed connection: a send lock, a pending-future table,
    and a reader task routing response frames by request id."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int,
        m_bytes_out=NULL_INSTRUMENT,
        m_bytes_in=NULL_INSTRUMENT,
        compress_threshold: int | None = None,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._compress_threshold = compress_threshold
        self._m_bytes_out = m_bytes_out
        self._m_bytes_in = m_bytes_in
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._send_lock = asyncio.Lock()
        self.dead: BaseException | None = None
        self._reader_task = asyncio.create_task(self._read_loop())

    @property
    def alive(self) -> bool:
        return self.dead is None

    async def request(self, message: dict) -> dict:
        if self.dead is not None:
            raise self.dead
        rid = self._next_id
        self._next_id += 1
        message["id"] = rid
        frame = encode_frame(
            message,
            self._max_frame,
            compress_threshold=self._compress_threshold,
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            async with self._send_lock:
                self._writer.write(frame)
                await self._writer.drain()
            self._m_bytes_out.inc(len(frame))
            return await future
        finally:
            self._pending.pop(rid, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(FRAME_HEADER_BYTES)
                size, compressed = frame_header_info(
                    header, self._max_frame
                )
                payload = await self._reader.readexactly(size)
                self._m_bytes_in.inc(FRAME_HEADER_BYTES + size)
                if compressed:
                    payload = decompress_frame_payload(
                        payload, self._max_frame
                    )
                message = decode_message(payload)
                if not isinstance(message, dict):
                    raise WireFormatError("response must be a message dict")
                future = self._pending.get(message.get("id"))
                if future is not None and not future.done():
                    future.set_result(message)
                # a response whose waiter timed out/vanished is dropped
        except asyncio.CancelledError:
            self._fail(ConnectionResetError("client shut down"))
            raise
        except BaseException as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        if self.dead is None:
            self.dead = exc
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()
        self._writer.close()

    def close(self) -> None:
        self._reader_task.cancel()


class _LoopPool:
    """The connections one event loop owns, used round-robin.  Holds
    its loop only weakly so a dead loop's pool can be evicted (and the
    loop itself collected) instead of leaking across ``asyncio.run``
    boundaries."""

    __slots__ = ("loop_ref", "connections", "cursor")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop_ref = weakref.ref(loop)
        self.connections: list[_Connection] = []
        self.cursor = 0

    @property
    def dead(self) -> bool:
        loop = self.loop_ref()
        return loop is None or loop.is_closed()


class TransportClient:
    """Pooled, multiplexed access to one wire-protocol server.

    Parameters
    ----------
    host, port:
        The server's bound address (``QueryServer.address``).
    retry:
        Budget for *connection-level* failures (see the module
        docstring); defaults to 3 attempts, no backoff.
    request_timeout:
        Client-side deadline per request attempt, mapped to
        :class:`~repro.middleware.errors.ServiceTimeoutError`.
    connect_timeout:
        Deadline for establishing one connection.
    pool_size:
        Sockets per event loop; 1 (multiplexed) is plenty for the
        in-tree workloads.
    compress_threshold:
        Opt in to zlib frame compression: requests at least this many
        payload bytes travel compressed (when that helps), and the
        server -- seeing a compressed frame -- compresses its large
        responses on the same connection.  ``None`` (default) keeps
        every frame raw; servers always accept either form.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = None,
        request_timeout: float = 30.0,
        connect_timeout: float = 5.0,
        pool_size: int = 1,
        max_frame: int = MAX_FRAME_BYTES,
        compress_threshold: int | None = None,
        obs=None,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if compress_threshold is not None and compress_threshold < 0:
            raise ValueError(
                "compress_threshold must be >= 0 or None, got "
                f"{compress_threshold}"
            )
        self.host = host
        self.port = port
        self._retry = retry or RetryPolicy()
        self._request_timeout = request_timeout
        self._connect_timeout = connect_timeout
        self._pool_size = pool_size
        self._max_frame = max_frame
        self._compress_threshold = compress_threshold
        self._pools: dict[int, _LoopPool] = {}
        self._retry_rng = self._retry.sampler()
        if obs is None:
            self._m_requests = self._m_retries = NULL_INSTRUMENT
            self._m_bytes_out = self._m_bytes_in = NULL_INSTRUMENT
        else:
            self._m_requests = obs.counter(
                "repro_client_requests_total",
                help="wire requests issued (attempts counted once)",
            )
            self._m_retries = obs.counter(
                "repro_client_retries_total",
                help="connection-level failures retried",
            )
            self._m_bytes_out = obs.counter(
                "repro_client_bytes_sent_total",
                help="request bytes (headers + payloads)",
            )
            self._m_bytes_in = obs.counter(
                "repro_client_bytes_received_total",
                help="response bytes (headers + payloads)",
            )

    # ------------------------------------------------------------------
    # connection pool (per running loop; see the module docstring)
    # ------------------------------------------------------------------
    async def _connection(self) -> _Connection:
        loop = asyncio.get_running_loop()
        # evict pools whose loops have died (their reader tasks were
        # cancelled at loop teardown, marking the connections dead);
        # this also frees an id(loop) slot for safe reuse
        for key in [k for k, p in self._pools.items() if p.dead]:
            del self._pools[key]
        pool = self._pools.get(id(loop))
        if pool is None:
            pool = self._pools[id(loop)] = _LoopPool(loop)
        pool.connections = [c for c in pool.connections if c.alive]
        if len(pool.connections) < self._pool_size:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self._connect_timeout,
            )
            pool.connections.append(
                _Connection(
                    reader,
                    writer,
                    self._max_frame,
                    self._m_bytes_out,
                    self._m_bytes_in,
                    self._compress_threshold,
                )
            )
        pool.cursor = (pool.cursor + 1) % len(pool.connections)
        return pool.connections[pool.cursor]

    async def request(self, message: dict, *, service: str = "transport") -> dict:
        """One request/response exchange; retries connection-level
        failures within the retry policy, maps everything onto the
        service error taxonomy, raises server-reported errors as their
        in-process types."""
        attempts = 0
        self._m_requests.inc()
        while True:
            attempts += 1
            try:
                connection = await self._connection()
                response = await asyncio.wait_for(
                    connection.request(dict(message)),
                    self._request_timeout,
                )
                break
            except WireFormatError:
                raise  # protocol corruption is never retried
            except (TimeoutError, EOFError, OSError) as exc:
                mapped = connection_error_to_service_error(
                    service, exc, attempts
                )
                if (
                    isinstance(mapped, ServiceUnavailableError)
                    or attempts >= self._retry.max_attempts
                ):
                    raise mapped from exc
                self._m_retries.inc()
                pause = self._retry.delay(attempts, self._retry_rng)
                if pause:
                    await asyncio.sleep(pause)
        if response.get("ok"):
            return response
        raise self._map_server_error(response, service)

    def _map_server_error(self, response: dict, service: str) -> Exception:
        """Turn a server error frame into the exception to raise;
        subclasses serving richer protocols (e.g. the query client)
        extend the code table before falling back here."""
        return _server_error(response, service)

    async def fetch_metadata(self) -> dict:
        """The server's export manifest (``meta`` op)."""
        return await self.request({"op": "meta"})

    # ------------------------------------------------------------------
    # source construction
    # ------------------------------------------------------------------
    async def sources(self) -> "list[NetworkGradedSource]":
        """One :class:`NetworkGradedSource` per exported list."""
        meta = await self.fetch_metadata()
        return [
            NetworkGradedSource(
                self,
                index,
                entry["name"],
                int(entry["n"]),
                bool(entry["sorted"]),
                bool(entry["random"]),
            )
            for index, entry in enumerate(meta["sources"])
        ]

    async def shard_runs(self) -> "list[list[NetworkRunSource]]":
        """The exported ``[list][shard]`` run grid (empty when the
        server exports no runs)."""
        meta = await self.fetch_metadata()
        return [
            [
                NetworkRunSource(
                    self, i, s, f"list-{i}/shard-{s}", int(length)
                )
                for s, length in enumerate(row)
            ]
            for i, row in enumerate(meta["runs"])
        ]

    def close(self) -> None:
        """Close every pooled connection (best effort; idempotent).
        Connections owned by an already-dead loop were torn down with
        it."""
        for pool in self._pools.values():
            for connection in pool.connections:
                try:
                    connection.close()
                except RuntimeError:  # pragma: no cover - loop gone
                    pass
            pool.connections = []
        self._pools.clear()

    async def aclose(self) -> None:
        """Like :meth:`close`, but *awaits* the running loop's reader
        tasks so none outlives the loop that owns it -- the clean
        teardown for callers about to let their event loop die."""
        loop = asyncio.get_running_loop()
        pool = self._pools.pop(id(loop), None)
        if pool is not None:
            tasks = [c._reader_task for c in pool.connections]
            for connection in pool.connections:
                connection.close()
            pool.connections = []
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        self.close()

    def __enter__(self) -> "TransportClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TransportClient {self.host}:{self.port}>"


def _server_error(response: dict, service: str) -> Exception:
    code = response.get("error", "internal")
    attempts = int(response.get("attempts", 1))
    if code == "unknown_object":
        return UnknownObjectError(response.get("obj"))
    if code == "timeout":
        return ServiceTimeoutError(service, attempts)
    if code == "transient":
        return ServiceTransientError(service, attempts)
    if code == "unavailable":
        return ServiceUnavailableError(service, attempts)
    return RemoteServiceError(
        service, f"{code}: {response.get('message', '')}", attempts
    )


class NetworkGradedSource:
    """One remote attribute's graded list, reached over the wire.

    Satisfies :class:`~repro.services.protocol.RemoteGradedSource`:
    the sorted stream issues stateless page requests (the client keeps
    the cursor, so a retried page is idempotent) and
    ``random_access_batch`` is one request -- hence one round trip --
    for the whole batch.
    """

    def __init__(
        self,
        client: TransportClient,
        index: int,
        name: str,
        num_entries: int,
        supports_sorted: bool,
        supports_random: bool,
    ):
        self._client = client
        self._index = index
        self.name = name
        self._num_entries = num_entries
        self.supports_sorted = supports_sorted
        self.supports_random = supports_random

    @property
    def num_entries(self) -> int:
        return self._num_entries

    def capabilities(self) -> ListCapabilities:
        return ListCapabilities(
            sorted_allowed=self.supports_sorted,
            random_allowed=self.supports_random,
        )

    async def page(self, start: int, count: int) -> SortedPage:
        """One *stateless* page: entries ``[start, start + count)`` of
        the remote sorted list, one request (the wire twin of
        :meth:`~repro.services.simulated.SimulatedListService.page`).
        Exposed so replicated wrappers can keep the cursor themselves
        and resume at an exact page boundary on another replica."""
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        response = await self._client.request(
            {
                "op": "page",
                "src": self._index,
                "start": start,
                "count": count,
            },
            service=self.name,
        )
        objects = response["objects"]
        grades = response["grades"]
        if not isinstance(objects, list) or not isinstance(
            grades, np.ndarray
        ):
            raise WireFormatError(f"malformed page from {self.name!r}")
        return SortedPage(objects, grades.tolist())

    async def sorted_access_stream(
        self, batch_size: int
    ) -> AsyncIterator[SortedPage]:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        position = 0
        while position < self._num_entries:
            page = await self.page(position, batch_size)
            if not page.objects:
                break
            position += len(page.objects)
            yield page

    async def random_access_batch(
        self, objects: Sequence[Hashable]
    ) -> list[float]:
        response = await self._client.request(
            {"op": "random", "src": self._index, "ids": list(objects)},
            service=self.name,
        )
        grades = response["grades"]
        if not isinstance(grades, np.ndarray) or len(grades) != len(objects):
            raise WireFormatError(
                f"malformed random-access response from {self.name!r}"
            )
        return grades.tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<NetworkGradedSource {self.name!r} n={self._num_entries} "
            f"via {self._client.host}:{self._client.port}>"
        )


class NetworkRunSource:
    """One shard's sorted run of one list, streamed over the wire --
    the network twin of
    :class:`~repro.services.simulated.ShardRunService`, accepted
    anywhere :func:`~repro.services.assemble.fetch_merged_orders`
    takes a run grid."""

    def __init__(
        self,
        client: TransportClient,
        list_index: int,
        shard_index: int,
        name: str,
        num_entries: int,
    ):
        self._client = client
        self._list = list_index
        self._shard = shard_index
        self.name = name
        self._num_entries = num_entries

    @property
    def num_entries(self) -> int:
        return self._num_entries

    async def run_stream(
        self, batch_size: int
    ) -> AsyncIterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        position = 0
        while position < self._num_entries:
            response = await self._client.request(
                {
                    "op": "run_page",
                    "list": self._list,
                    "shard": self._shard,
                    "start": position,
                    "count": batch_size,
                },
                service=self.name,
            )
            rows = response["rows"]
            grades = response["grades"]
            ties = response["ties"]
            if not all(
                isinstance(a, np.ndarray) for a in (rows, grades, ties)
            ) or not (len(rows) == len(grades) == len(ties)):
                raise WireFormatError(
                    f"malformed run page from {self.name!r}"
                )
            if not len(rows):
                break
            position += len(rows)
            yield (
                rows.astype(np.intp, copy=False),
                grades,
                ties.astype(np.int64, copy=False),
            )

    async def fetch_run(
        self, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain the whole stream into one concatenated run triple."""
        rows_parts, grade_parts, tie_parts = [], [], []
        async for rows, grades, ties in self.run_stream(batch_size):
            rows_parts.append(rows)
            grade_parts.append(grades)
            tie_parts.append(ties)
        if not rows_parts:
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(rows_parts),
            np.concatenate(grade_parts),
            np.concatenate(tie_parts),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NetworkRunSource {self.name!r} n={self._num_entries}>"
