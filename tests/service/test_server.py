"""The NDJSON socket front end: round trips, pipelining, overload, CLI."""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import SortInputError
from repro.service import (
    ServiceConfig,
    SortService,
    request_sort,
    start_server,
)
from repro.service import server as server_module
from repro.service.config import RETRY_AFTER_MS
from repro.service.server import MAX_LINE_BYTES

REPO = Path(__file__).resolve().parent.parent.parent

#: Per-test ceiling for socket round trips: a wedged server must fail the
#: test, not hang the whole suite (pytest-timeout is deliberately not a
#: dependency).
TIMEOUT_S = 60.0


def _run(coro):
    """``asyncio.run`` with the suite's hang ceiling applied."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT_S))


def _readline_timeout(stream, timeout_s: float = TIMEOUT_S) -> str:
    """Read one line from a subprocess pipe, bounded by ``timeout_s``.

    ``stream.readline()`` on a pipe blocks forever if the child never
    writes; a daemon thread keeps the timeout enforceable.
    """
    box: list[str] = []
    thread = threading.Thread(
        target=lambda: box.append(stream.readline()), daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise TimeoutError(f"no line from subprocess in {timeout_s:.0f}s")
    return box[0]


async def _open(service):
    server = await start_server(service)
    return server, server.sockets[0].getsockname()[1]


def test_round_trip_and_control_ops(rng):
    keys = rng.random(64, dtype=np.float32)

    async def run():
        async with SortService(devices=2, coalesce_window_ms=1.0) as svc:
            server, port = await _open(svc)
            try:
                resp = await request_sort("127.0.0.1", port, keys, tag="r1")
                assert resp["id"] == "r1"
                assert resp["n"] == 64
                assert resp["keys"] == sorted(resp["keys"])
                assert resp["telemetry"]["queue_wait_ms"] >= 0.0
                assert resp["telemetry"]["service_makespan_ms"] > 0.0

                pinned = await request_sort(
                    "127.0.0.1", port, [3.0, 1.0, 2.0], engine="cpu-std"
                )
                assert pinned["engine"] == "cpu-std"
                assert pinned["keys"] == [1.0, 2.0, 3.0]
                assert pinned["ids"] == [1, 2, 0]

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"op": "ping"}\n{"op": "stats"}\nnot json\n')
                await writer.drain()
                # Responses come back in completion order, not line order.
                responses = [
                    json.loads(await reader.readline()) for _ in range(3)
                ]
                ping = next(r for r in responses if "ok" in r)
                stats = next(r for r in responses if "completed" in r)
                bad = next(r for r in responses if "error" in r)
                assert ping["ok"] is True
                assert stats["completed"] == 2
                assert stats["rejected"] == 0
                assert "bad JSON" in bad["error"]
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()

    _run(run())


def test_trace_export_renders_spans_off_the_loop_thread(rng, monkeypatch):
    from repro.service import instrument, metrics, request_op

    render_threads = []
    render = metrics._batch_spans

    def recording(event):
        render_threads.append(threading.get_ident())
        return render(event)

    # The event log binds its render function when the service is instrumented.
    monkeypatch.setattr(metrics, "_batch_spans", recording)

    async def run():
        async with SortService(devices=2, coalesce_window_ms=1.0) as svc:
            instrument(svc)
            server, port = await _open(svc)
            try:
                for _ in range(3):
                    await request_sort("127.0.0.1", port,
                                       rng.random(32, dtype=np.float32))
                assert render_threads == []
                trace = await request_op("127.0.0.1", port, "trace")
                return threading.get_ident(), trace["trace"]
            finally:
                server.close()
                await server.wait_closed()

    loop_thread, trace = _run(run())
    assert trace["traceEvents"]
    assert render_threads and loop_thread not in render_threads


def test_pipelined_lines_coalesce_and_tag(rng):
    async def run():
        config = ServiceConfig(
            devices=2, coalesce_window_ms=100.0, max_batch=4, engine="cpu-std"
        )
        async with SortService(config) as svc:
            server, port = await _open(svc)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for tag in ("a", "b", "c"):
                    keys = rng.random(32, dtype=np.float32)
                    writer.write(
                        (json.dumps({"id": tag, "keys": keys.tolist()}) + "\n").encode()
                    )
                await writer.drain()
                responses = {}
                for _ in range(3):
                    resp = json.loads(await reader.readline())
                    responses[resp["id"]] = resp
                assert set(responses) == {"a", "b", "c"}
                for resp in responses.values():
                    assert resp["keys"] == sorted(resp["keys"])
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
        # One connection's pipelined lines landed in one coalesced batch.
        assert svc.stats.batches == 1
        assert svc.stats.largest_batch == 3

    _run(run())


def test_overload_response_carries_retry_after(rng):
    async def run():
        config = ServiceConfig(
            devices=1,
            max_pending=1,
            coalesce_window_ms=10_000.0,
            max_batch=10,
            engine="cpu-std",
        )
        async with SortService(config) as svc:
            server, port = await _open(svc)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for tag in ("first", "second"):
                    writer.write(
                        (json.dumps({"id": tag, "keys": [2.0, 1.0]}) + "\n").encode()
                    )
                await writer.drain()
                # The rejection returns immediately (the admitted request
                # is still held open by the huge coalesce window).
                rejected = json.loads(await reader.readline())
                assert rejected["id"] == "second"
                assert rejected["error"] == "overloaded"
                assert rejected["retry_after_ms"] == RETRY_AFTER_MS
                await svc.flush()
                served = json.loads(await reader.readline())
                assert served["id"] == "first"
                assert served["keys"] == [1.0, 2.0]
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
        assert svc.stats.rejected == 1

    _run(run())


def test_engine_errors_are_reported_per_line():
    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server, port = await _open(svc)
            try:
                resp = await request_sort(
                    "127.0.0.1", port, [1.0, 2.0], engine="no-such-engine"
                )
                assert "unknown engine" in resp["error"]
                missing = await request_sort("127.0.0.1", port, [])
                assert missing["n"] == 0
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"op": "nonsense"}\n')
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert "error" in resp
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()

    _run(run())


def test_cli_serve_limit_smoke(rng):
    """``python -m repro serve --limit`` serves real clients then exits 0."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--limit", "2",
            "--engine", "cpu-std", "--window-ms", "5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": "src"},
    )
    try:
        ready = _readline_timeout(proc.stdout)
        match = re.search(r"serving on .*:(\d+) ", ready)
        assert match, f"no listening line: {ready!r}"
        port = int(match.group(1))

        async def clients():
            a = await request_sort(
                "127.0.0.1", port, [0.3, 0.1, 0.2], engine="cpu-std"
            )
            b = await request_sort("127.0.0.1", port, [5.0, 4.0])
            return a, b

        a, b = _run(clients())
        assert a["keys"] == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]
        assert b["keys"] == [4.0, 5.0]
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "service stats" in out
        assert "2 completed" in out
        # Shutdown drains the connection handlers instead of cancelling
        # them (which logs a CancelledError traceback on Python 3.11).
        assert "Traceback" not in err and "CancelledError" not in err, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_socket_example_shuts_down_cleanly():
    """The service tour closes its server and leaves ``asyncio.run``
    right after its last round trip: no handler may be left to cancel."""
    proc = subprocess.run(
        [sys.executable, "examples/service_tour.py"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": "src"},
        timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert "NDJSON socket" in proc.stdout
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "CancelledError" not in proc.stderr, proc.stderr


def test_parse_errors():
    (resp,) = _serve_raw(b'{"id": 4}\n', 1)
    assert resp == {"id": 4, "error": 'sort needs "keys"'}


def test_server_requests_inherit_service_hardware():
    from repro.stream.gpu_model import AGP_SYSTEM, GEFORCE_6800_ULTRA

    keys = [float(k) for k in np.linspace(1.0, 0.0, 256, dtype=np.float32)]

    async def run():
        config = ServiceConfig(devices=1, gpu=GEFORCE_6800_ULTRA, host=AGP_SYSTEM)
        async with SortService(config) as svc:
            server, port = await _open(svc)
            try:
                return await request_sort("127.0.0.1", port, keys)
            finally:
                server.close()
                await server.wait_closed()

    resp = _run(run())
    old = repro.sort(
        repro.SortRequest(keys=keys, gpu=GEFORCE_6800_ULTRA, host=AGP_SYSTEM),
        engine=resp["engine"],
    )
    new = repro.sort(repro.SortRequest(keys=keys), engine=resp["engine"])
    assert resp["telemetry"]["modeled_total_ms"] == old.telemetry.modeled_total_ms
    assert old.telemetry.modeled_total_ms != new.telemetry.modeled_total_ms


async def _lines(port: int, payload: bytes, count: int) -> list[dict]:
    """Write ``payload`` on one connection and read ``count`` responses.

    The read is bounded by a short ``wait_for``: a line the server leaves
    unanswered fails the test instead of hanging it.
    """
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_LINE_BYTES
    )
    try:
        writer.write(payload)
        await writer.drain()

        async def read_all():
            return [json.loads(await reader.readline()) for _ in range(count)]

        return await asyncio.wait_for(read_all(), 10.0)
    finally:
        writer.close()
        await writer.wait_closed()


def _serve_raw(payload: bytes, count: int) -> list[dict]:
    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server, port = await _open(svc)
            try:
                return await _lines(port, payload, count)
            finally:
                server.close()
                await server.wait_closed()

    return _run(run())


@pytest.mark.parametrize("line", [b"[1, 2, 3]", b'"hi"', b"42", b"null"])
def test_non_object_json_lines_get_an_error_line(line):
    (resp,) = _serve_raw(line + b"\n", 1)
    assert resp == {"id": None, "error": "request lines must be JSON objects"}


def test_invalid_utf8_gets_an_error_and_the_connection_keeps_serving():
    responses = _serve_raw(b'\xff\xfe{"op": "ping"}\n{"op": "ping", "id": 7}\n', 2)
    bad = next(r for r in responses if "error" in r)
    assert "bad JSON" in bad["error"] and "utf-8" in bad["error"]
    assert {"id": 7, "ok": True} in responses


def test_unknown_ops_and_actions_are_named():
    responses = _serve_raw(
        b'{"op": "nonsense", "id": 1}\n{"op": "fleet", "action": "x", "id": 2}\n',
        2,
    )
    by_id = {r["id"]: r["error"] for r in responses}
    assert by_id == {1: "unknown op 'nonsense'", 2: "unknown fleet action 'x'"}


def test_an_op_value_that_names_no_op_is_named_unknown():
    responses = _serve_raw(
        b'{"op": ["a"], "id": 1}\n{"op": {"x": 1}, "id": 2}\n'
        b'{"op": 5, "id": 3}\n{"op": "fleet.policies", "id": 4}\n',
        4,
    )
    by_id = {r["id"]: r["error"] for r in responses}
    assert by_id == {
        1: "unknown op ['a']",
        2: "unknown op {'x': 1}",
        3: "unknown op 5",
        4: "unknown op 'fleet.policies'",  # a dotted name needs "action"
    }


def test_malformed_keys_still_get_a_response():
    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server, port = await _open(svc)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"keys": ["not-a-number"]}\n')
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert "error" in resp
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()

    _run(run())


def test_out_of_contract_sort_lines_get_one_error_line_each():
    lines = [
        (b'{"id": 1, "keys": [1, 1, 0, 2], "ids": [3, 3, 1, 2]}\n',
         repro.SortRequest(keys=[1, 1, 0, 2], ids=[3, 3, 1, 2])),
        (b'{"id": 2, "keys": [1.0, NaN]}\n', repro.SortRequest(keys=[1.0, np.nan])),
    ]

    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server, port = await _open(svc)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                got = []
                for line, _request in lines:
                    writer.write(line)
                    await writer.drain()
                    got.append(json.loads(await reader.readline()))
                # An extra line for either request would be read here
                # instead of the ping's answer.
                writer.write(b'{"id": 3, "op": "ping"}\n')
                await writer.drain()
                got.append(json.loads(await reader.readline()))
                return got
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

    got = _run(run())
    for (_line, request), resp in zip(lines, got):
        with pytest.raises(SortInputError) as err:
            request.to_values()
        assert resp == {"id": resp["id"], "error": str(err.value)}
    assert [r["id"] for r in got] == [1, 2, 3]
    assert got[2] == {"id": 3, "ok": True}


#: Lines outside the wire contract, each with the field its error names.
#: The JSON shape of a field is checked when the line binds; the values
#: are checked by make_values, as for every other face.
SHAPE_LINES = [
    ({"keys": ["2.5", "1e1"]}, "keys"),
    ({"keys": [True, False]}, "keys"),
    ({"keys": 5}, "keys"),
    ({"keys": [1.0], "ids": [True]}, "ids"),
    ({}, "keys"),
    ({"op": "store", "action": "insert", "keys": ["a", "b"]}, "keys"),
]
#: (keys, ids) that are well-formed JSON but no (key, id) pairs.
VALUE_LINES = [
    ([1.0, 2.0], [1.9, 0.2]),
    ([1e300], None),
    ([1.0], [-1]),
    ([1.0], [2**32]),
    ([1.0], [1.0]),
    ([1, 2], [1]),
]


def _python_face_error(keys, ids) -> str:
    """The SortInputError text of ``repro.sort`` and of ``SortService.submit``."""
    request = repro.SortRequest(keys=keys, ids=ids)
    with pytest.raises(SortInputError) as direct:
        repro.sort(request)

    async def submit():
        async with SortService(devices=1, coalesce_window_ms=0.0) as svc:
            await svc.submit(request)

    with pytest.raises(SortInputError) as served:
        _run(submit())
    assert str(served.value) == str(direct.value)
    return str(direct.value)


def test_out_of_contract_wire_table(tmp_path):
    from repro.store import SortedStore

    lines = [dict(fields) for fields, _field in SHAPE_LINES]
    lines += [{"keys": keys} if ids is None else {"keys": keys, "ids": ids}
              for keys, ids in VALUE_LINES]

    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server = await start_server(svc, store=SortedStore(tmp_path))
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                got = []
                for tag, line in enumerate(lines):
                    writer.write((json.dumps({"id": tag, **line}) + "\n").encode())
                    await writer.drain()
                    got.append(json.loads(await reader.readline()))
                writer.write(b'{"id": "last", "op": "ping"}\n')
                await writer.drain()
                got.append(json.loads(await reader.readline()))
                return got
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

    got = _run(run())
    assert got[-1] == {"id": "last", "ok": True}
    for tag, resp in enumerate(got[:-1]):
        assert set(resp) == {"id", "error"} and resp["id"] == tag, resp
    for (_fields, field), resp in zip(SHAPE_LINES, got):
        assert f'"{field}"' in resp["error"] or f" {field} " in resp["error"]
    for (keys, ids), resp in zip(VALUE_LINES, got[len(SHAPE_LINES):]):
        assert resp["error"] == _python_face_error(keys, ids)
        assert ("ids" if ids is not None else "keys") in resp["error"]


def test_a_line_over_64_kib_is_served(rng):
    """A 20k-key sort line (~405 KB) is past asyncio's 64 KiB default."""
    keys = rng.random(20_000, dtype=np.float32)
    (resp,) = _serve_raw(
        (json.dumps({"id": 1, "keys": [float(k) for k in keys]}) + "\n").encode(),
        1,
    )
    assert resp["n"] == 20_000
    assert resp["keys"] == [float(k) for k in np.sort(keys)]
    assert resp["ids"] == np.argsort(keys, kind="stable").tolist()


def test_an_over_cap_line_gets_one_error_and_the_connection_keeps_serving(
    monkeypatch,
):
    cap = 1024
    monkeypatch.setattr(server_module, "MAX_LINE_BYTES", cap)
    too_long = {"id": None, "error": "line too long", "limit": cap}

    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server, port = await _open(svc)
            try:
                # Newline in the same write as the overrun: the server finds
                # the separator past the cap.
                found = await _lines(
                    port, b"x" * (3 * cap) + b'\n{"op": "ping", "id": 1}\n', 2
                )
                # The line arrives in pieces with no newline in sight: the
                # server drains chunk by chunk until one comes.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for _ in range(4):
                    writer.write(b"y" * cap)
                    await writer.drain()
                    await asyncio.sleep(0.01)
                writer.write(b'y\n{"op": "ping", "id": 2}\n')
                await writer.drain()
                drained = [
                    json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                return found, drained
            finally:
                server.close()
                await server.wait_closed()

    found, drained = _run(run())
    assert found == [too_long, {"id": 1, "ok": True}]
    assert drained == [too_long, {"id": 2, "ok": True}]
