"""Newline-delimited-JSON socket front end for :class:`SortService`.

``python -m repro serve`` binds a :class:`repro.service.SortService` to a
TCP socket.  The wire protocol is one JSON object per line, in both
directions, and every line is one op: a line without ``"op"`` is the
sort op :data:`SORT` (``keys``, optional ``ids`` and ``engine``);
``{"op": X}`` runs the op ``X`` of the one op table :data:`repro.ops.OPS`
(``ping``, ``stats``, ``metrics``, ``trace``: the ops with a ``service``
input, answered on the event loop) and ``{"op": X, "action": Y}`` the op
``"X.Y"`` (the store and fleet actions the CLI serves too, run in the
executor).  Each line is bound by :func:`repro.ops.bind`, so a field of
the wrong JSON type is named the same way on every op.  Every line gets
exactly one response line; a failure answers
``{"id": ..., "error": "..."}``.  A line longer than
:data:`MAX_LINE_BYTES` is skipped through its newline and answered
``{"id": null, "error": "line too long", "limit": MAX_LINE_BYTES}``.
``docs/service.md`` tabulates every op and its fields.

Each connection may pipeline: request lines are served concurrently (that
is what lets the service coalesce them into one batch) and responses come
back **in completion order**, so pipelining clients should tag requests
with ``"id"``.

:func:`request_sort` is the matching client helper used by the tests
and the cookbook; :func:`request_op` sends one op line (``python -m
repro metrics`` scrapes through it).
"""

from __future__ import annotations

import asyncio
import inspect
import json

from repro.engines.base import SortRequest, SortResult
from repro.errors import ReproError, ServiceOverloadError
from repro.ops import OPS, NumberArray, Op, Param, bind, pairs_json
from repro.service.service import SortService

__all__ = ["start_server", "serve_forever", "request_sort", "request_op",
           "MAX_LINE_BYTES"]

#: Longest request or response line either side reads (asyncio's default
#: of 64 KiB would reset the connection on a sort of ~3k keys).
MAX_LINE_BYTES = 1 << 24

#: Seconds between the metrics-NDJSON samples :func:`serve_forever`
#: appends to ``metrics_out`` (a final one is written at shutdown).
SAMPLE_EVERY_S = 1.0


#: The service-relevant telemetry fields a sort response carries.
TELEMETRY_FIELDS = ("queue_wait_ms", "coalesce_ms", "service_makespan_ms",
                    "modeled_total_ms", "modeled_makespan_ms", "stream_ops",
                    "devices", "wall_time_s")


def _sort_json(result: SortResult) -> dict:
    telemetry = result.telemetry
    return {"engine": result.engine, **pairs_json(result.values), "telemetry": {
        name: getattr(telemetry, name) for name in TELEMETRY_FIELDS}}


def _submit(args):
    """Submit one sort line (a coroutine), priced on the serving config's
    ``gpu``/``host``: the wire carries no hardware fields."""
    service = args["service"]
    request = SortRequest(keys=args["keys"], ids=args["ids"],
                          gpu=service.config.gpu, host=service.config.host)
    return service.submit(request, engine=args["engine"])


KEYS = Param("keys", NumberArray, required=True, help="the keys to sort")

#: The op of every line without ``"op"``.  It is no entry of
#: :data:`repro.ops.OPS`, so ``{"op": "sort"}`` names no op.
SORT = Op(
    "sort",
    (KEYS, Param("ids", NumberArray, help="the pairs' ids (default: positions)"),
     Param("engine", help="pin a backend (default: the service's)")),
    _submit, _sort_json, help="sort one batch of (key, id) pairs", inputs=("service",))

#: The socket's stand-ins for the shared ops' face inputs (as the CLI's
#: ``_CLI_PARAMS``): an insert's keys come inline.
_SOCKET_PARAMS = {"store.insert": (KEYS,)}


def _line_op(message: dict, service: SortService, store) -> tuple[Op, dict]:
    """The op a line names, with its bound arguments and face inputs.

    No ``"op"`` is :data:`SORT`; a bare op name (``ping``) is the whole
    key and ``"action"`` is ignored; a group (``store``) takes its
    action: ``"store.query"``.
    """
    name, action = message.get("op"), message.get("action")
    op = SORT if name is None else isinstance(name, str) and (
        ("." not in name and OPS.get(name)) or OPS.get(f"{name}.{action}"))
    if not op:
        if isinstance(name, str) and any(k.startswith(f"{name}.") for k in OPS):
            raise ReproError(f"unknown {name} action {action!r}")
        raise ReproError(f"unknown op {name!r}")
    if op.name in _SOCKET_PARAMS:
        op = op._replace(params=op.params + _SOCKET_PARAMS[op.name])
    args = bind(op, message)
    if "service" in op.inputs:
        args["service"] = service
    if "store" in op.inputs:
        if store is None:
            raise ReproError("no store attached (start the server with --store)")
        args["store"] = store
    return op, args


async def _serve_line(service: SortService, line: bytes, store=None) -> dict:
    """Serve one request line, returning its one response object.

    An op with a ``service`` input reads loop-owned state, so it runs on
    the event loop (a sort awaits its submission there); every other op
    runs in the default executor (store calls are blocking file work,
    fleet replays pure CPU), so the event loop keeps serving meanwhile.
    """
    tag = None
    try:
        try:
            message = json.loads(line.decode())
        except ValueError as err:  # bad UTF-8 or bad JSON
            raise ReproError(f"bad JSON: {err}") from None
        if not isinstance(message, dict):
            raise ReproError("request lines must be JSON objects")
        tag = message.get("id")
        op, args = _line_op(message, service, store)
        if "service" in op.inputs:
            result = op.handler(args)
            if inspect.isawaitable(result):
                result = await result
        else:
            result = await asyncio.get_running_loop().run_in_executor(
                None, op.handler, args
            )
        return {"id": tag, **op.to_json(result)}
    except ServiceOverloadError as err:
        return {"id": tag, "error": "overloaded",
                "retry_after_ms": err.retry_after_ms}
    except ReproError as err:
        return {"id": tag, "error": str(err)}
    except Exception as err:  # noqa: BLE001 -- a client must always get a
        # response line; an unexpected failure in a handler would otherwise
        # kill the respond task and hang the client's readline.
        return {"id": tag, "error": f"{type(err).__name__}: {err}"}


async def start_server(
    service: SortService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    limit: int | None = None,
    done: asyncio.Event | None = None,
    store=None,
) -> asyncio.AbstractServer:
    """Bind ``service`` to a TCP socket (``port=0`` picks a free port).

    The returned server is started; its bound port is
    ``server.sockets[0].getsockname()[1]``.  ``limit`` sets ``done`` (if
    given) after that many responses have been written -- the hook
    :func:`serve_forever` and the tests use to stop a server
    deterministically.  ``store`` (a :class:`repro.store.SortedStore`)
    enables the ``{"op": "store"}`` protocol lines.  The caller owns the
    server, service, and store lifecycles.

    ``server.wait_closed()`` also waits for every open connection's
    handler to answer its lines and close, as Python 3.12.1+ does for all
    servers: on 3.11 a handler still running when the loop ends is
    cancelled mid-close and logs a ``CancelledError`` traceback.
    """
    served = 0
    handlers: set[asyncio.Task] = set()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def respond(line: bytes | None) -> None:
            nonlocal served
            if line is None:
                response = {"id": None, "error": "line too long",
                            "limit": MAX_LINE_BYTES}
            else:
                response = await _serve_line(service, line, store)
            async with write_lock:
                if writer.is_closing():
                    return  # the client went away: nothing to deliver
                writer.write((json.dumps(response) + "\n").encode())
                try:
                    await writer.drain()
                except ConnectionError:
                    return
            served += 1
            if limit is not None and served >= limit and done is not None:
                done.set()

        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as err:
                    line = err.partial  # EOF (b"" unless the last line is bare)
                    if not line:
                        break
                except asyncio.LimitOverrunError as err:
                    await _skip_line(reader, err.consumed)
                    line = None  # answered with the "line too long" error
                except ConnectionError:
                    break  # reset by the client: answer nothing more
                if line is None or line.strip():
                    # Serve concurrently so one connection's pipelined
                    # lines can coalesce into a single batch.
                    task = asyncio.create_task(respond(line))
                    pending.add(task)
                    task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # client went away first
                pass

    def accept(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.create_task(handle(reader, writer))
        handlers.add(task)
        task.add_done_callback(handlers.discard)

    server = await asyncio.start_server(accept, host, port, limit=MAX_LINE_BYTES)
    listener_closed = server.wait_closed

    async def wait_closed() -> None:
        await listener_closed()
        while handlers:
            await asyncio.gather(*handlers, return_exceptions=True)

    server.wait_closed = wait_closed
    return server


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Discard an over-long line through its newline (or to EOF).

    ``consumed`` is what the overrun reported: bytes already buffered
    that hold no newline.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as err:
            consumed = err.consumed


async def serve_forever(
    service: SortService,
    host: str = "127.0.0.1",
    port: int = 7806,
    *,
    limit: int | None = None,
    on_ready=None,
    store=None,
    metrics_out=None,
    trace_out=None,
) -> "SortService":
    """Run a service-backed NDJSON server until cancelled (or ``limit``).

    Starts the caller's un-started ``service`` (the caller keeps the
    handle, so its :class:`ServiceStats` survive cancellation unwinding
    through ``asyncio.run``), binds it to ``host:port``, then serves
    until the task is cancelled -- or, with ``limit``, until that many
    responses have been written (the CLI's ``--limit`` smoke/testing
    hook).
    ``on_ready(port)`` is called once the socket is bound (the CLI prints
    the listening line from it).  ``store`` attaches a
    :class:`repro.store.SortedStore` for ``{"op": "store"}`` lines.

    When the service carries instrumentation (``service.observer``, see
    :func:`repro.service.metrics.instrument`), ``metrics_out`` appends a
    metrics-NDJSON sample every :data:`SAMPLE_EVERY_S` seconds (plus a final
    one at shutdown) and ``trace_out`` saves the spans built from its
    event log as Chrome trace JSON at shutdown.  Returns the (closed) service so callers can
    inspect its final stats.
    """
    await service.start()
    stop = asyncio.Event()
    server = await start_server(
        service, host, port, limit=limit, done=stop, store=store
    )
    sampler = None
    sampler_task = None
    if metrics_out is not None and service.observer is not None:
        from repro.obs.sampler import MetricsSampler

        sampler = MetricsSampler(service.observer.registry, metrics_out)

        async def sample_loop() -> None:
            while True:
                await asyncio.sleep(SAMPLE_EVERY_S)
                sampler.sample(service.observer.now_ms())

        sampler_task = asyncio.create_task(sample_loop())
    try:
        bound = server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(bound)
        if limit is None:
            await asyncio.Event().wait()  # until cancelled
        else:
            await stop.wait()
    finally:
        if sampler_task is not None:
            sampler_task.cancel()
        server.close()
        await server.wait_closed()
        await service.close()
        if sampler is not None:
            sampler.sample(service.observer.now_ms())
        if trace_out is not None and service.observer is not None:
            service.observer.spans.save(trace_out)
    return service


async def _round_trip(host: str, port: int, message: dict) -> dict:
    """Send one line to a running NDJSON server and read its response."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    try:
        writer.write((json.dumps(message) + "\n").encode())
        await writer.drain()
        return json.loads((await reader.readline()).decode())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request_sort(
    host: str,
    port: int,
    keys,
    *,
    engine: str | None = None,
    tag=None,
) -> dict:
    """One round trip against a running NDJSON server (async client)."""
    message: dict = {"keys": [float(k) for k in keys]}
    if engine is not None:
        message["engine"] = engine
    if tag is not None:
        message["id"] = tag
    return await _round_trip(host, port, message)


async def request_op(host: str, port: int, op: str, **fields) -> dict:
    """One op-line round trip: send ``{"op": op, **fields}``.

    The client side of ``{"op": "stats"/"metrics"/"trace"/...}`` lines;
    ``python -m repro metrics`` scrapes a live server through it.
    """
    return await _round_trip(host, port, {"op": op, **fields})
