"""Newline-delimited-JSON socket front end for :class:`SortService`.

``python -m repro serve`` binds a :class:`repro.service.SortService` to a
TCP socket.  The wire protocol is one JSON object per line, in both
directions: a line with ``"keys"`` sorts, ``{"op": ...}`` lines are
control ops (``ping``, ``stats``, ``metrics``, ``trace``), and
``{"op": X, "action": Y}`` lines run the operation
``repro.ops.OPS["X.Y"]`` -- the store and fleet actions the CLI serves
too.  Every line gets exactly one response line; a failure answers
``{"id": ..., "error": "..."}``.  ``docs/service.md`` tabulates every
op and its fields.

Each connection may pipeline: request lines are served concurrently (that
is what lets the service coalesce them into one batch) and responses come
back **in completion order**, so pipelining clients should tag requests
with ``"id"``.

:func:`request_sort` / :func:`sort_over_socket` are the matching client
helpers used by the tests and the cookbook; :func:`request_op` sends one
control line (``python -m repro metrics`` scrapes through it).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.engines.base import SortRequest, SortResult
from repro.errors import ReproError, ServiceOverloadError
from repro.ops import OPS, Op, bind
from repro.service.config import ServiceConfig
from repro.service.service import SortService

__all__ = [
    "start_server",
    "serve_forever",
    "request_sort",
    "request_op",
    "sort_over_socket",
]


def _telemetry_payload(result: SortResult) -> dict:
    """The service-relevant telemetry fields of one result, JSON-ready."""
    t = result.telemetry
    return {
        "queue_wait_ms": t.queue_wait_ms,
        "coalesce_ms": t.coalesce_ms,
        "service_makespan_ms": t.service_makespan_ms,
        "modeled_total_ms": t.modeled_total_ms,
        "modeled_makespan_ms": t.modeled_makespan_ms,
        "stream_ops": t.stream_ops,
        "devices": t.devices,
        "wall_time_s": t.wall_time_s,
    }


def _parse_request(message: dict, config) -> tuple[SortRequest, str | None]:
    """Build the (request, engine) pair one JSON sort line describes.

    The wire protocol carries no hardware fields: requests inherit the
    serving :class:`~repro.service.ServiceConfig`'s ``gpu``/``host``
    models, so ``python -m repro serve --gpu 6800`` prices every socket
    request on the system it advertises.
    """
    if "keys" not in message:
        raise ReproError('sort lines need a "keys" array')
    keys = np.asarray(message["keys"], dtype=np.float32)
    ids = message.get("ids")
    if ids is not None:
        ids = np.asarray(ids, dtype=np.uint32)
    request = SortRequest(keys=keys, ids=ids, gpu=config.gpu, host=config.host)
    return request, message.get("engine")


def _observer(service: SortService):
    if service.observer is None:
        raise ReproError(
            "no metrics attached (instrument the service with "
            "repro.service.instrument)"
        )
    return service.observer


#: Control lines, answered from the service itself on the event loop.
_CONTROL = {
    "ping": lambda service: {"ok": True},
    "stats": lambda service: service.stats.snapshot().to_json(),
    "metrics": lambda service: {
        "metrics": _observer(service).registry.expose()
    },
    "trace": lambda service: {"trace": _observer(service).spans.to_chrome()},
}


def _table_op(message: dict, store) -> tuple[Op, dict]:
    """The shared op an ``{"op", "action"}`` line names, with its arguments.

    The socket's face inputs join the bound parameters: the attached
    ``store`` and the inline ``keys``.
    """
    name, action = message["op"], message.get("action")
    op = OPS.get(f"{name}.{action}")
    if op is None:
        if any(key.startswith(f"{name}.") for key in OPS):
            raise ReproError(f"unknown {name} action {action!r}")
        raise ReproError(f"unknown op {name!r}")
    args = bind(op, message)
    if "store" in op.inputs:
        if store is None:
            raise ReproError("no store attached (start the server with --store)")
        args["store"] = store
    if "keys" in op.inputs:
        if "keys" not in message:
            raise ReproError('store inserts need a "keys" array')
        args["keys"] = np.asarray(message["keys"], dtype=np.float32)
    return op, args


async def _serve_line(service: SortService, line: bytes, store=None) -> dict:
    """Serve one request line, returning its one response object.

    Table ops run in the default executor (store calls are blocking file
    work, fleet replays pure CPU), so the event loop keeps serving sort
    lines meanwhile.
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
        name = message.get("op")
        if name in _CONTROL:
            return {"id": tag, **_CONTROL[name](service)}
        if name is not None:
            op, args = _table_op(message, store)
            result = await asyncio.get_running_loop().run_in_executor(
                None, op.handler, args
            )
            return {"id": tag, **op.to_json(result)}
        request, engine = _parse_request(message, service.config)
        result = await service.submit(request, engine=engine)
        return {
            "id": tag,
            "engine": result.engine,
            "n": len(result),
            "keys": [float(k) for k in result.keys],
            "ids": [int(i) for i in result.ids],
            "telemetry": _telemetry_payload(result),
        }
    except ServiceOverloadError as err:
        return {
            "id": tag,
            "error": "overloaded",
            "retry_after_ms": err.retry_after_ms,
        }
    except ReproError as err:
        return {"id": tag, "error": str(err)}
    except Exception as err:  # noqa: BLE001 -- a client must always get a
        # response line; e.g. np.asarray raising on non-numeric keys would
        # otherwise kill the respond task and hang the client's readline.
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
    """
    served = 0

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def respond(line: bytes) -> None:
            nonlocal served
            response = await _serve_line(service, line, store)
            async with write_lock:
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
            served += 1
            if limit is not None and served >= limit and done is not None:
                done.set()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.strip():
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

    return await asyncio.start_server(handle, host, port)


async def serve_forever(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 7806,
    *,
    limit: int | None = None,
    on_ready=None,
    service: SortService | None = None,
    store=None,
    metrics_out=None,
    trace_out=None,
    sample_every_s: float = 1.0,
) -> "SortService":
    """Run a service-backed NDJSON server until cancelled (or ``limit``).

    Starts a :class:`SortService` under ``config`` (or the caller's own
    un-started ``service`` -- useful to keep a handle on its
    :class:`ServiceStats` when cancellation unwinds through
    ``asyncio.run``), binds it to ``host:port``, then serves until the
    task is cancelled -- or, with ``limit``, until that many responses
    have been written (the CLI's ``--limit`` smoke/testing hook).
    ``on_ready(port)`` is called once the socket is bound (the CLI prints
    the listening line from it).  ``store`` attaches a
    :class:`repro.store.SortedStore` for ``{"op": "store"}`` lines.

    When the service carries instrumentation (``service.observer``, see
    :func:`repro.service.metrics.instrument`), ``metrics_out`` appends a
    metrics-NDJSON sample every ``sample_every_s`` seconds (plus a final
    one at shutdown) and ``trace_out`` saves the span ring as Chrome
    trace JSON at shutdown.  Returns the (closed) service so callers can
    inspect its final stats.
    """
    if service is None:
        service = SortService(config)
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
                await asyncio.sleep(sample_every_s)
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
    reader, writer = await asyncio.open_connection(host, port)
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


def sort_over_socket(host: str, port: int, keys, *, engine: str | None = None) -> dict:
    """Synchronous convenience wrapper over :func:`request_sort`."""
    return asyncio.run(request_sort(host, port, keys, engine=engine))


async def request_op(host: str, port: int, op: str, **fields) -> dict:
    """One control-line round trip: send ``{"op": op, **fields}``.

    The client side of ``{"op": "stats"/"metrics"/"trace"/...}`` lines;
    ``python -m repro metrics`` scrapes a live server through it.
    """
    return await _round_trip(host, port, {"op": op, **fields})
