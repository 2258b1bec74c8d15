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

from repro.service import (
    ServiceConfig,
    SortService,
    request_sort,
    start_server,
)

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
            retry_after_ms=12.5,
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
                assert rejected["retry_after_ms"] == 12.5
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
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_parse_errors():
    from repro.errors import ReproError
    from repro.service.server import _parse_request

    with pytest.raises(ReproError):
        _parse_request({}, ServiceConfig())


def test_server_requests_inherit_service_hardware():
    from repro.service.server import _parse_request
    from repro.stream.gpu_model import AGP_SYSTEM, GEFORCE_6800_ULTRA

    config = ServiceConfig(gpu=GEFORCE_6800_ULTRA, host=AGP_SYSTEM)
    request, engine = _parse_request({"keys": [1.0, 2.0]}, config)
    assert request.gpu is GEFORCE_6800_ULTRA
    assert request.host is AGP_SYSTEM
    assert engine is None


async def _lines(port: int, payload: bytes, count: int) -> list[dict]:
    """Write ``payload`` on one connection and read ``count`` responses.

    The read is bounded by a short ``wait_for``: a line the server leaves
    unanswered fails the test instead of hanging it.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
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
