"""The query service over the wire: :class:`QueryServer` and codecs.

:class:`QueryServer` mounts a :class:`~repro.server.service.QueryService`
on the :class:`~repro.transport.frames.FrameServer` chassis, so remote
clients submit whole top-k *queries* -- and read the paper's sorted
lists themselves -- over the length-prefixed frame protocol.  Ops:

``query``
    ``{"spec": {...}}`` -> ``{"query": id}``.  Admission errors travel
    back as ``error="admission"`` frames.
``result``
    ``{"query": id, "timeout": s}`` -> long-poll: ``{"done": True,
    "result": ..., "bill": ...}`` when the query reached a terminal
    state within ``timeout`` seconds, ``{"done": False, "status": ...}``
    otherwise.  A failed query's error surfaces here, as the error
    frame the query's exception maps to (a cancelled query yields
    ``error="cancelled"``).
``status`` / ``cancel`` / ``stats`` / ``meta`` / ``ping``
    Introspection and control.  ``meta`` reports ``protocol`` (the
    wire protocol version, 2 as of the mutable/view release) and
    ``mutable`` so clients can feature-detect; v1 servers simply omit
    both keys, and v1 clients ignore them -- the codec is
    unknown-field tolerant in both directions.
``page`` / ``random`` / ``run_page``
    The source ops, for ``database=`` services
    (:func:`~repro.services.network.network_services`,
    :func:`~repro.services.network.network_shard_runs`), all stateless
    reads answered straight from the database's current columnar
    snapshot -- so one daemon serves both the lists and the queries:

    * ``{"src": i, "start": p, "count": c}`` -> entries ``[p, p + c)``
      of list ``i``'s sorted order, ``{"objects": [...], "grades":
      float64 array}`` (clients keep their own cursors);
    * ``{"src": i, "ids": [...]}`` -> ``{"grades": float64 array}``,
      positionally, through the store's valve-checked gather;
    * ``{"list": i, "shard": s, "start": p, "count": c}`` -> ``{"rows",
      "grades", "ties"}`` slices of that shard run of a sharded
      database.

    A negative ``start``, a ``count`` below 1, an out-of-range list or
    shard, and a page whose grades alone could not fit one frame are
    refused as ``bad_request`` before anything is read.  The service's
    latency/failure/retry models run once per op, server-side, and
    their failures travel back as error frames the client re-raises
    as the in-process error types.  ``meta`` carries the union of the
    source keys (``sources``, ``runs``) and the service keys.  A
    service over caller-supplied ``services=`` serves no lists:
    ``meta`` lists none, and the other source ops fail with
    ``error="unavailable"``.
``subscribe`` / ``view_events`` / ``unsubscribe`` / ``mutate``
    Protocol v2, mutable-backed services only: register a standing
    query (``{"spec": {..., "mode": "view"}}`` -> ``{"view": id,
    "result": ..., "seq": 0, "version": v}``), long-poll its delta
    stream (``{"view": id, "after": seq, "timeout": s}`` ->
    ``{"events": [...], "seq": latest, "version": v}``), drop it, and
    apply insert/update/delete writes.  A connection's views die with
    it, exactly like its queries.

Per-connection state matters here, unlike for source reads: the ids a
connection submitted live in ``conn.state["queries"]``, and when the
client disconnects its unfinished queries are cancelled -- abandoning
a socket must free the scan-cache attachments and worker slots its
queries held.

The result codec (:func:`encode_result` / :func:`decode_result`) is
lossless for everything the differential tests compare: items with
exact grades or ``[W, B]`` bounds, halting reason, rounds, depth,
buffer high-water mark, the full per-list ``AccessStats`` (the wire
format requires ``str`` dict keys, so per-list counts travel as
``{"0": n0, ...}``), and portable extras (scalars only -- engine
internals like interned id maps stay server-side).
"""

from __future__ import annotations

import asyncio

from ..middleware.access import AccessStats
from ..middleware.database import ColumnarDatabase
from ..middleware.errors import (
    AdmissionError,
    QueryCancelledError,
    ServiceUnavailableError,
    UnknownQueryError,
    UnknownViewError,
    WireFormatError,
)
from ..core.result import RankedItem, TopKResult
from ..services.protocol import check_window
from ..transport.frames import BASE_ERROR_CODES, FrameConnection, FrameServer
from .service import ALGORITHMS, AGGREGATIONS, QueryService, QuerySpec

__all__ = [
    "PROTOCOL_VERSION",
    "QueryServer",
    "encode_result",
    "decode_result",
]

#: wire protocol version reported by the ``meta`` op.  v1 (PR 7) had
#: one-shot queries only and did not report a version; v2 adds the
#: ``mode`` spec field and the subscribe/view_events/unsubscribe/mutate
#: ops.  Decoders tolerate unknown fields, so version skew degrades to
#: feature absence, never to frame errors.
PROTOCOL_VERSION = 2


#: the ops that read the service's lists (see the module docstring)
SOURCE_OPS = frozenset({"meta", "page", "random", "run_page"})

#: extras value types that survive the trip (everything else is
#: server-side engine state and is dropped from wire results)
_PORTABLE_SCALARS = (str, int, float, bool, type(None))


def encode_result(result: TopKResult) -> dict:
    """A :class:`~repro.core.result.TopKResult` as a wire-portable dict
    (plain scalars, lists, and ``str``-keyed dicts only)."""
    stats = result.stats
    return {
        "algorithm": result.algorithm,
        "k": result.k,
        "items": [
            {
                "obj": item.obj,
                "grade": item.grade,
                "lower": item.lower_bound,
                "upper": item.upper_bound,
            }
            for item in result.items
        ],
        "stats": {
            "sorted_accesses": stats.sorted_accesses,
            "random_accesses": stats.random_accesses,
            # the wire codec requires str dict keys; per-list counts
            # are int-keyed in AccessStats
            "sorted_by_list": {
                str(i): c for i, c in stats.sorted_by_list.items()
            },
            "random_by_list": {
                str(i): c for i, c in stats.random_by_list.items()
            },
            "middleware_cost": stats.middleware_cost,
            "depth": stats.depth,
            "distinct_objects_seen": stats.distinct_objects_seen,
        },
        "rounds": result.rounds,
        "depth": result.depth,
        "halt_reason": result.halt_reason,
        "max_buffer_size": result.max_buffer_size,
        "extras": {
            key: value
            for key, value in result.extras.items()
            if isinstance(key, str)
            and isinstance(value, _PORTABLE_SCALARS)
        },
    }


def decode_result(data: dict) -> TopKResult:
    """Rebuild a :class:`~repro.core.result.TopKResult` from
    :func:`encode_result` output (grades stay bit-exact: the frame
    codec ships floats as raw IEEE doubles)."""
    try:
        stats_data = data["stats"]
        stats = AccessStats(
            sorted_accesses=stats_data["sorted_accesses"],
            random_accesses=stats_data["random_accesses"],
            sorted_by_list={
                int(i): c for i, c in stats_data["sorted_by_list"].items()
            },
            random_by_list={
                int(i): c for i, c in stats_data["random_by_list"].items()
            },
            middleware_cost=stats_data["middleware_cost"],
            depth=stats_data["depth"],
            distinct_objects_seen=stats_data["distinct_objects_seen"],
        )
        items = [
            RankedItem(
                obj=item["obj"],
                grade=item["grade"],
                lower_bound=item["lower"],
                upper_bound=item["upper"],
            )
            for item in data["items"]
        ]
        return TopKResult(
            algorithm=data["algorithm"],
            k=data["k"],
            items=items,
            stats=stats,
            rounds=data["rounds"],
            depth=data["depth"],
            halt_reason=data["halt_reason"],
            max_buffer_size=data["max_buffer_size"],
            extras=dict(data["extras"]),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise WireFormatError(f"malformed result payload: {exc!r}") from exc


def _index(value, size: int, what: str) -> int:
    index = int(value)
    if not 0 <= index < size:
        raise WireFormatError(
            f"{what} index {index} out of range (serving {size})"
        )
    return index


def _check_valve(db: ColumnarDatabase) -> None:
    """Run a store's residency valve before a source op reads its map
    (the engines run it at every chunk boundary; in-RAM databases have
    none)."""
    if db._valve is not None:
        db._valve.check()


def _retrieve(future: asyncio.Future) -> None:
    """Mark a finished future's exception as retrieved."""
    if not future.cancelled():
        future.exception()


#: how long one ``result`` long-poll waits server-side before replying
#: ``done=False`` (clients re-poll; bounded so dead clients can't pin
#: request slots forever)
MAX_RESULT_WAIT_S = 30.0


class QueryServer(FrameServer):
    """Serve a :class:`~repro.server.service.QueryService` over TCP.

    The service is armed on the serving loop (``_starting`` hook) and
    torn down when the server closes, so ``QueryServer(service=...)``
    owns its service's lifecycle in both async and background-thread
    modes.
    """

    thread_name = "repro-query-server"
    error_codes = (
        (QueryCancelledError, "cancelled"),
        (AdmissionError, "admission"),
        (UnknownQueryError, "unknown_query"),
        (UnknownViewError, "unknown_view"),
    ) + BASE_ERROR_CODES

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int | None = None,
        max_concurrent: int | None = None,
    ):
        kwargs = {} if max_frame is None else {"max_frame": max_frame}
        super().__init__(
            host=host, port=port, max_concurrent=max_concurrent,
            obs=service.obs, **kwargs
        )
        self._service = service

    @property
    def service(self) -> QueryService:
        return self._service

    async def _starting(self) -> None:
        await self._service.astart()

    async def _stopping(self) -> None:
        await self._service.aclose()

    async def _connection_closed(self, conn: FrameConnection) -> None:
        # the client is gone: nobody will ever collect these results,
        # so cancelling frees their worker slots, scan attachments,
        # and budget clocks
        for query_id in conn.state.get("queries", ()):
            try:
                self._service._cancel_on_loop(query_id)
            except UnknownQueryError:
                pass  # already swept
        # standing views die with their subscriber
        for view_id in list(conn.state.get("views", ())):
            try:
                await self._service.aunsubscribe(view_id)
            except UnknownViewError:
                pass  # already dropped

    async def _dispatch(self, message, conn: FrameConnection) -> dict:
        op = message.get("op")
        if op in SOURCE_OPS:
            return await self._source_op(message)
        if op == "query":
            spec = QuerySpec.from_dict(message.get("spec"))
            handle = await self._service.asubmit(spec)
            conn.state.setdefault("queries", set()).add(handle.query_id)
            return {"query": handle.query_id}
        if op == "result":
            return await self._result(message, conn)
        if op == "status":
            return self._service.status(self._query_id(message))
        if op == "cancel":
            cancelled = self._service._cancel_on_loop(
                self._query_id(message)
            )
            return {"cancelled": cancelled}
        if op == "trace":
            return {
                "trace": self._service.query_trace(self._query_id(message))
            }
        if op == "stats":
            return {"stats": self._service.stats()}
        if op == "metrics":
            return {"metrics": self._service.metrics()}
        if op == "ping":
            return {"pong": True}
        if op == "subscribe":
            spec = QuerySpec.from_dict(message.get("spec"))
            reply = await self._service.asubscribe(spec)
            conn.state.setdefault("views", set()).add(reply["view"])
            return {
                "view": reply["view"],
                "result": encode_result(reply["result"]),
                "seq": reply["seq"],
                "version": reply["version"],
            }
        if op == "view_events":
            return await self._view_events(message)
        if op == "unsubscribe":
            view_id = self._view_id(message)
            dropped = await self._service.aunsubscribe(view_id)
            conn.state.get("views", set()).discard(view_id)
            return {"unsubscribed": dropped}
        if op == "mutate":
            return await self._mutate(message)
        raise WireFormatError(f"unknown op {op!r}")

    async def _source_op(self, message) -> dict:
        service = self._service
        op = message["op"]
        if op == "meta":
            sources, runs = service.source_meta()
            return {
                "sources": sources,
                "runs": runs,
                "compression": "zlib",
                "m": service.num_lists,
                "n": service.num_objects,
                "algorithms": sorted(ALGORITHMS),
                "aggregations": sorted(AGGREGATIONS),
                "protocol": PROTOCOL_VERSION,
                "mutable": service.mutable is not None,
            }
        columnar = service._columnar
        if columnar is None:
            raise ServiceUnavailableError(
                "this query service runs over caller-supplied services "
                "and serves no lists"
            )
        if op == "run_page":
            runs = service._source_runs()
            i = _index(message["list"], len(runs), "run list")
            s = _index(message["shard"], len(runs[i]), "run shard")
            rows, grades, ties = runs[i][s]
            start, stop = self._window(message, len(rows))
            await service._endpoint(i, s)._call()
            _check_valve(columnar)
            return {
                "rows": rows[start:stop],
                "grades": grades[start:stop],
                "ties": ties[start:stop],
            }
        i = _index(message["src"], service.num_lists, "source")
        if op == "page":
            start, stop = self._window(message, service.num_objects)
            db = columnar._speculation_store()
            await service._endpoint(i)._call()
            _check_valve(db)
            return {
                "objects": db.ids_for_rows(db._order_rows[i][start:stop]),
                "grades": db._order_grades[i][start:stop],
            }
        ids = message["ids"]
        if not isinstance(ids, list):
            raise WireFormatError("'ids' must be a list")
        db = columnar._speculation_store()
        await service._endpoint(i)._call()
        return {"grades": db._gather(db.rows_for(ids), i)}

    def _window(self, message, length: int) -> tuple[int, int]:
        """The ``[start, stop)`` slice a ``page``/``run_page`` asks
        for, clamped to ``length`` -- refused before anything is read
        when it is negative or empty (a negative slice would serve from
        the end of the list), or when its grades alone (8 bytes an
        entry) could not fit one frame."""
        start, count = int(message["start"]), int(message["count"])
        check_window(start, count)
        stop = min(start + count, length)
        if (stop - start) * 8 > self._max_frame:
            raise WireFormatError(
                f"a page of {stop - start} entries cannot fit one "
                f"{self._max_frame}-byte frame"
            )
        return start, stop

    def _error_response(self, rid, exc: BaseException) -> dict:
        response = super()._error_response(rid, exc)
        # carry the query/view id so the client can rebuild the exact
        # exception (mirrors the chassis's UnknownObjectError handling)
        query_id = getattr(exc, "query_id", None)
        if isinstance(query_id, str):
            response["query"] = query_id
        view_id = getattr(exc, "view_id", None)
        if isinstance(view_id, str):
            response["view"] = view_id
        return response

    @staticmethod
    def _query_id(message) -> str:
        query_id = message.get("query")
        if not isinstance(query_id, str):
            raise WireFormatError(f"bad query id {query_id!r}")
        return query_id

    @staticmethod
    def _view_id(message) -> str:
        view_id = message.get("view")
        if not isinstance(view_id, str):
            raise WireFormatError(f"bad view id {view_id!r}")
        return view_id

    async def _view_events(self, message) -> dict:
        view_id = self._view_id(message)
        after = message.get("after", 0)
        if not isinstance(after, int) or isinstance(after, bool) or after < 0:
            raise WireFormatError(f"bad 'after' sequence {after!r}")
        timeout = message.get("timeout", MAX_RESULT_WAIT_S)
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
            raise WireFormatError(f"bad timeout {timeout!r}")
        timeout = min(float(timeout), MAX_RESULT_WAIT_S)
        return await self._service.aview_events(
            view_id, after=after, timeout=timeout
        )

    async def _mutate(self, message) -> dict:
        action = message.get("action")
        if not isinstance(action, str):
            raise WireFormatError(f"bad mutation action {action!r}")
        if "obj" not in message:
            raise WireFormatError("mutation needs an 'obj'")
        grades = message.get("grades")
        if grades is not None and not isinstance(grades, (list, tuple)):
            raise WireFormatError(f"bad grades {grades!r}")
        list_index = message.get("list_index")
        if list_index is not None and (
            not isinstance(list_index, int) or isinstance(list_index, bool)
        ):
            raise WireFormatError(f"bad list_index {list_index!r}")
        grade = message.get("grade")
        if grade is not None and (
            not isinstance(grade, (int, float)) or isinstance(grade, bool)
        ):
            raise WireFormatError(f"bad grade {grade!r}")
        return await self._service.amutate(
            action,
            message["obj"],
            grades=grades,
            list_index=list_index,
            grade=None if grade is None else float(grade),
        )

    async def _result(self, message, conn: FrameConnection) -> dict:
        query_id = self._query_id(message)
        timeout = message.get("timeout", MAX_RESULT_WAIT_S)
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
            raise WireFormatError(f"bad timeout {timeout!r}")
        timeout = min(float(timeout), MAX_RESULT_WAIT_S)
        state = self._service.query_state(query_id)
        outcome = asyncio.wrap_future(state.future)
        # a timed-out poll abandons this wrapper, and shield stops
        # watching it: retrieve its outcome here, or a later cancel's
        # exception is logged as never retrieved
        outcome.add_done_callback(_retrieve)
        try:
            # shielded: a poll that times out must not cancel the
            # query's own future -- a later poll still collects it
            result = await asyncio.wait_for(asyncio.shield(outcome), timeout)
        except asyncio.TimeoutError:
            return {"done": False, "status": state.status}
        finally:
            state.collected = True
        # errors (including QueryCancelledError) propagate out of
        # wait_for and become this request's error frame
        bill = state.bill
        return {
            "done": True,
            "result": encode_result(result),
            "bill": bill.as_dict() if bill is not None else None,
        }
