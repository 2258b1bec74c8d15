"""Hypothesis fuzz of the NDJSON socket protocol.

Random mixes of valid sort lines, pings, bad JSON, non-object JSON and
invalid UTF-8 are pipelined on one connection in random chunks.  Every
complete line must get exactly one response, sort lines must answer
sorted keys, and the connection must still answer a ping afterwards.
Clients that vanish with lines in flight, mid-line or with a reset must
leave the server answering fresh connections, every admitted request
resolved, and nothing logged by the server's loop.  One server (on its
own event-loop thread) serves every example.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import SortService, start_server
from repro.service.server import MAX_LINE_BYTES

TIMEOUT_S = 10.0

_sort_lines = st.lists(
    st.floats(allow_nan=False, width=32), max_size=16
).map(lambda keys: ("sort", keys))
_ping_lines = st.just(("ping", None))
_bad_json = st.sampled_from(
    [b"not json", b'{"keys": [1, 2', b"{]", b"{'op': 'ping'}", b"[1,"]
).map(lambda raw: ("raw", raw))
_non_objects = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
).map(lambda value: ("raw", json.dumps(value).encode()))
_bad_utf8 = st.binary(max_size=8).map(
    lambda tail: ("raw", b"\xff" + tail.replace(b"\n", b""))
)
_lines = st.lists(
    st.one_of(_sort_lines, _ping_lines, _bad_json, _non_objects, _bad_utf8),
    min_size=1,
    max_size=12,
)


@contextmanager
def _server_thread():
    """Yield the port and service of a server running on a private loop.

    Anything the loop's exception handler receives (an unretrieved task
    error, a failed connection callback) fails the test at shutdown.
    """
    loop = asyncio.new_event_loop()
    logged: list[dict] = []
    loop.set_exception_handler(lambda _loop, context: logged.append(context))
    ready = threading.Event()
    box: dict = {}

    async def main():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            server = await start_server(svc)
            box["port"] = server.sockets[0].getsockname()[1]
            box["service"] = svc
            box["stop"] = asyncio.Event()
            ready.set()
            await box["stop"].wait()
            server.close()
            await server.wait_closed()

    thread = threading.Thread(target=loop.run_until_complete, args=(main(),))
    thread.start()
    try:
        assert ready.wait(TIMEOUT_S), "server thread did not start"
        yield box["port"], box["service"]
    finally:
        if "stop" in box:
            loop.call_soon_threadsafe(box["stop"].set)
        thread.join(TIMEOUT_S)
        assert not thread.is_alive()
        loop.close()
    assert not logged, logged


def _encode(index: int, kind: str, body) -> bytes:
    if kind == "sort":
        return json.dumps({"id": index, "keys": body}).encode()
    if kind == "ping":
        return json.dumps({"id": index, "op": "ping"}).encode()
    return body


def test_pipelined_random_lines_get_one_response_each():
    with _server_thread() as (port, _service):

        @settings(max_examples=25)
        @given(lines=_lines, data=st.data())
        def check(lines, data):
            payload = b"".join(
                _encode(i, kind, body) + b"\n"
                for i, (kind, body) in enumerate(lines)
            )
            cuts = sorted(
                data.draw(
                    st.lists(st.integers(0, len(payload)), max_size=6),
                    label="cuts",
                )
            )
            bounds = [0, *cuts, len(payload)]
            with socket.create_connection(
                ("127.0.0.1", port), timeout=TIMEOUT_S
            ) as sock, sock.makefile("rb") as stream:
                for start, end in zip(bounds, bounds[1:]):
                    sock.sendall(payload[start:end])
                responses = [
                    json.loads(stream.readline(MAX_LINE_BYTES))
                    for _ in lines
                ]
                sock.sendall(b'{"op": "ping", "id": "last"}\n')
                assert json.loads(stream.readline()) == {"id": "last", "ok": True}
            by_id = {r["id"]: r for r in responses if r["id"] is not None}
            assert len(by_id) == sum(kind != "raw" for kind, _ in lines)
            assert sum(r["id"] is None for r in responses) == sum(
                kind == "raw" for kind, _ in lines
            )
            for i, (kind, body) in enumerate(lines):
                if kind == "sort":
                    expected = np.sort(np.asarray(body, dtype=np.float32))
                    assert by_id[i]["keys"] == expected.tolist()
                elif kind == "ping":
                    assert by_id[i] == {"id": i, "ok": True}
            assert all("error" in r for r in responses if r["id"] is None)

        check()


def test_abrupt_disconnects_leave_the_server_serving():
    with _server_thread() as (port, service):

        @settings(max_examples=25)
        @given(
            lines=_lines,
            ending=st.sampled_from(["in_flight", "mid_line", "reset"]),
        )
        def check(lines, ending):
            payload = b"".join(
                _encode(i, kind, body) + b"\n"
                for i, (kind, body) in enumerate(lines)
            )
            if ending == "mid_line":
                payload += b'{"id": "torn", "keys": [1.0, 0.5'
            with socket.create_connection(
                ("127.0.0.1", port), timeout=TIMEOUT_S
            ) as sock:
                if ending == "reset":
                    # Zero linger: close() sends RST instead of FIN.
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                sock.sendall(payload)
            # Closed without reading a single response.
            with socket.create_connection(
                ("127.0.0.1", port), timeout=TIMEOUT_S
            ) as sock, sock.makefile("rb") as stream:
                sock.sendall(b'{"op": "ping", "id": "fresh"}\n')
                assert json.loads(stream.readline()) == {"id": "fresh", "ok": True}
            deadline = time.monotonic() + TIMEOUT_S
            while service.pending and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.pending == 0

        check()
