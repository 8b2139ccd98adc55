"""The reusable frame-server chassis.

:class:`FrameServer` owns everything about serving the length-prefixed
frame protocol of :mod:`repro.middleware.serialization` that is *not*
specific to what is being served: the TCP lifecycle (async and
background-thread modes), per-connection read loops, one-task-per-
request dispatch, the ``max_concurrent`` backpressure gate, graceful
``drain()``, and the error-frame encoding.  Subclasses implement
``_dispatch`` (and may extend the wire error-code table or observe
connection teardown).  :class:`~repro.server.wire.QueryServer` is the
one in the library: it serves stateless source reads (pages, random
probes, shard runs) and whole top-k *queries* (submit/result/cancel),
where per-connection state matters: a client that disconnects abandons
its in-flight queries.

Protocol recap: every request and response is one frame (4-byte
little-endian payload length + one tagged binary message, a ``dict``).
Requests carry a client-chosen ``id``; responses echo it, which is
what makes a connection multiplexed -- the server dispatches every
request into its own asyncio task the moment the frame is read, so
slow requests never block fast ones, and responses are written
strictly one frame at a time under a per-connection lock.  Failures
travel back as ``{"ok": False, "error": code, "message": str,
"attempts": n}`` frames; a malformed frame is a protocol violation,
not a service failure: the connection is closed.
"""

from __future__ import annotations

import asyncio
import threading

from ..middleware.errors import (
    DatabaseError,
    RemoteServiceError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
    UnknownObjectError,
    WireFormatError,
)
from ..middleware.serialization import (
    COMPRESS_THRESHOLD_BYTES,
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    decode_message,
    decompress_frame_payload,
    encode_frame,
    frame_header_info,
)
from ..obs.metrics import NULL_INSTRUMENT

__all__ = ["FrameServer", "FrameConnection", "BASE_ERROR_CODES"]


#: wire error codes, by exception type (checked in order); subclasses
#: prepend their own entries via the ``error_codes`` class attribute
BASE_ERROR_CODES = (
    (UnknownObjectError, "unknown_object"),
    (ServiceTimeoutError, "timeout"),
    (ServiceTransientError, "transient"),
    (ServiceUnavailableError, "unavailable"),
    (RemoteServiceError, "remote"),
    (WireFormatError, "bad_request"),
    ((KeyError, TypeError, ValueError, DatabaseError), "bad_request"),
)


class FrameConnection:
    """One accepted connection: the stream pair, the per-connection
    send lock, and whatever per-connection state a subclass hangs off
    :attr:`state` (e.g. the queries this client owns)."""

    __slots__ = ("reader", "writer", "send_lock", "state")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.reader = reader
        self.writer = writer
        self.send_lock = asyncio.Lock()
        self.state: dict = {}


class FrameServer:
    """Serve tagged-message frames over TCP; see the module docstring.

    Parameters
    ----------
    host, port:
        Bind address; port 0 (the default) picks a free port, exposed
        as :attr:`address` after start.
    max_frame:
        Frame size limit for both directions.
    max_concurrent:
        Server-wide cap on in-flight requests.  When reached, every
        connection stops *reading* frames until a slot frees up, so a
        flood of requests backs up in the kernel's TCP buffers (and
        eventually blocks the sender) instead of ballooning server
        memory with decoded-but-unserved requests.  ``None`` (default)
        disables the cap.
    """

    #: thread name used by :meth:`start_in_thread`
    thread_name = "repro-frame-server"
    #: (exception types, wire code) pairs checked in order; subclasses
    #: override (typically prepending to ``BASE_ERROR_CODES``)
    error_codes = BASE_ERROR_CODES

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME_BYTES,
        max_concurrent: int | None = None,
        obs=None,
    ):
        if max_concurrent is not None and max_concurrent < 1:
            raise DatabaseError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self._host = host
        self._requested_port = port
        self._max_frame = max_frame
        self._max_concurrent = max_concurrent
        self._server: asyncio.Server | None = None
        self._address: tuple[str, int] | None = None
        self._connections: set[FrameConnection] = set()
        self._inflight = 0
        self._slot_free: asyncio.Event | None = None
        #: high-water mark of concurrently served requests
        self.peak_inflight = 0
        # background-thread mode
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._closed = False
        # wire-level instruments (no-ops without an obs plane)
        if obs is None:
            self._m_frames_in = self._m_frames_out = NULL_INSTRUMENT
            self._m_bytes_in = self._m_bytes_out = NULL_INSTRUMENT
            self._m_connections = self._m_error_frames = NULL_INSTRUMENT
        else:
            self._m_frames_in = obs.counter(
                "repro_server_frames_received_total",
                help="request frames decoded",
            )
            self._m_frames_out = obs.counter(
                "repro_server_frames_sent_total",
                help="response frames written",
            )
            self._m_bytes_in = obs.counter(
                "repro_server_bytes_received_total",
                help="request bytes (headers + payloads)",
            )
            self._m_bytes_out = obs.counter(
                "repro_server_bytes_sent_total",
                help="response bytes (headers + payloads)",
            )
            self._m_connections = obs.gauge(
                "repro_server_connections", help="open connections"
            )
            self._m_error_frames = obs.counter(
                "repro_server_error_frames_total",
                help="responses that carried an error code",
            )

    # ------------------------------------------------------------------
    # async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._slot_free = asyncio.Event()
        await self._starting()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port
        )
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]

    async def _starting(self) -> None:
        """Hook: runs on the serving loop just before the socket binds
        (subclasses arm loop-affine machinery here)."""

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (valid after start)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, timeout: float = 5.0) -> bool:
        """Graceful shutdown, phase one: stop accepting connections,
        then wait (bounded by ``timeout`` seconds) for every in-flight
        request to finish and flush its response.  Returns ``True``
        when the server drained cleanly, ``False`` when the timeout
        expired with requests still running (the caller's
        :meth:`aclose` will then cut them off).  Open connections are
        left open so drained responses still reach their clients."""
        if self._server is not None:
            self._server.close()
        event = self._slot_free
        if event is None:
            return True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._inflight > 0:
            # no await between the check and the clear, so a decrement
            # cannot slip through unnoticed (single-threaded loop)
            event.clear()
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(event.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            for conn in list(self._connections):
                conn.writer.close()
            await self._server.wait_closed()
            self._server = None
        await self._stopping()

    async def _stopping(self) -> None:
        """Hook: runs on the serving loop after the socket closed."""

    # ------------------------------------------------------------------
    # background-thread lifecycle (for synchronous callers)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> "FrameServer":
        """Run the server on a private event loop on a daemon thread;
        returns ``self`` once the socket is bound."""
        if self._loop is not None:
            raise RuntimeError("server thread already running")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self.start(), self._loop).result(
            timeout=10.0
        )
        return self

    def close(self) -> None:
        """Stop the background-thread server (idempotent)."""
        if self._closed:
            return
        self._closed = True
        loop, thread = self._loop, self._thread
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(self.aclose(), loop).result(
                timeout=5.0
            )
        except Exception:  # pragma: no cover - defensive teardown
            pass
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
            if not thread.is_alive():
                loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "FrameServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = FrameConnection(reader, writer)
        self._connections.add(conn)
        self._m_connections.set(len(self._connections))
        tasks: set[asyncio.Task] = set()
        event = self._slot_free
        try:
            while True:
                header = await reader.readexactly(FRAME_HEADER_BYTES)
                size, compressed = frame_header_info(header, self._max_frame)
                payload = await reader.readexactly(size)
                if compressed:
                    payload = decompress_frame_payload(
                        payload, self._max_frame
                    )
                    # negotiation by use: a client that sends one
                    # compressed frame understands them, so responses
                    # on this connection may compress from here on
                    conn.state["compress"] = True
                message = decode_message(payload)
                self._m_frames_in.inc()
                self._m_bytes_in.inc(FRAME_HEADER_BYTES + size)
                if self._max_concurrent is not None and event is not None:
                    # backpressure: at the cap, stop reading further
                    # frames -- this connection holds exactly one decoded
                    # request while the rest of the bytes pile up in
                    # kernel TCP buffers and eventually block the sender,
                    # so a slow consumer cannot balloon this process's
                    # memory.  The gate sits *after* the read so the
                    # check-and-admit below is atomic on the event loop
                    # (no await between the final check and the
                    # increment).
                    while self._inflight >= self._max_concurrent:
                        event.clear()
                        await event.wait()
                self._inflight += 1
                if self._inflight > self.peak_inflight:
                    self.peak_inflight = self._inflight
                # one task per request: responses interleave by
                # completion order, matched to requests by id
                task = asyncio.create_task(self._handle(message, conn))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client hung up
        except WireFormatError:
            pass  # protocol violation: drop the connection
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._connections.discard(conn)
            self._m_connections.set(len(self._connections))
            try:
                await self._connection_closed(conn)
            finally:
                writer.close()

    async def _connection_closed(self, conn: FrameConnection) -> None:
        """Hook: the client hung up (or the server is closing) and the
        connection's request tasks have been cancelled and drained.
        Subclasses release per-connection resources here."""

    async def _handle(self, message, conn: FrameConnection) -> None:
        try:
            await self._respond(message, conn)
        finally:
            # synchronous, so it runs even when this task is cancelled:
            # wake both backpressured readers and a pending drain()
            self._inflight -= 1
            if self._slot_free is not None:
                self._slot_free.set()

    async def _respond(self, message, conn: FrameConnection) -> None:
        rid = message.get("id") if isinstance(message, dict) else None
        try:
            response = await self._dispatch(message, conn)
            response["id"] = rid
            response["ok"] = True
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            response = self._error_response(rid, exc)
        threshold = (
            COMPRESS_THRESHOLD_BYTES if conn.state.get("compress") else None
        )
        try:
            frame = encode_frame(
                response, self._max_frame, compress_threshold=threshold
            )
        except WireFormatError as exc:  # oversized/unencodable result
            response = self._error_response(rid, exc)
            frame = encode_frame(
                response, self._max_frame, compress_threshold=threshold
            )
        if not response.get("ok"):
            self._m_error_frames.inc()
        try:
            async with conn.send_lock:
                conn.writer.write(frame)
                await conn.writer.drain()
            self._m_frames_out.inc()
            self._m_bytes_out.inc(len(frame))
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client hung up mid-response

    async def _dispatch(self, message, conn: FrameConnection) -> dict:
        """Serve one decoded request message; return the response body
        (``id``/``ok`` are added by the chassis).  Raise to produce an
        error frame."""
        raise NotImplementedError

    def _error_response(self, rid, exc: BaseException) -> dict:
        code = "internal"
        for types, name in self.error_codes:
            if isinstance(exc, types):
                code = name
                break
        response = {
            "id": rid,
            "ok": False,
            "error": code,
            "message": str(exc),
            "attempts": int(getattr(exc, "attempts", 1)),
        }
        if isinstance(exc, UnknownObjectError):
            obj = exc.obj
            if not isinstance(obj, (int, str, float, bool, type(None))):
                obj = str(obj)
            response["obj"] = obj
        return response
