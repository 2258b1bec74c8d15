"""One (key, id) contract through every face.

The same Hypothesis inputs -- tied keys, ``-0.0``/``+0.0``, the
infinities, subnormals and float32's extremes, lengths from 0 to past
one power of two, with position or shuffled unique ids -- go through
``repro.sort`` (every engine that accepts the length),
``SortService.submit``, a raw NDJSON sort line carrying ``keys`` and
``ids``, and ``SortedStore.insert`` into a fresh store read back by a
full-range ``range``.  Each face must return exactly the ``np.lexsort``
order on (key, id).  One service and one server, on their own event-loop
thread, serve every example.
"""

from __future__ import annotations

import asyncio
import json
import socket
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.service import SortService, start_server
from repro.store import SortedStore

TIMEOUT_S = 30.0

_F32 = np.finfo(np.float32)
#: Keys every engine must order exactly: signed zeros, infinities, the
#: smallest subnormals and normals, and float32's extremes.
SPECIAL_KEYS = [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45,
                float(_F32.tiny), float(-_F32.tiny),
                float(_F32.max), float(_F32.min)]

_keys = st.one_of(
    st.sampled_from(SPECIAL_KEYS),
    st.sampled_from([-1.0, 0.5, 2.0]),  # a small pool: ties
    st.floats(allow_nan=False, width=32),
)


@st.composite
def pairs(draw):
    """``(keys, ids)``: float32 keys and uint32 ids, or ``ids`` ``None``."""
    n = draw(st.integers(0, 40))  # past 32
    keys = np.array(draw(st.lists(_keys, min_size=n, max_size=n)), np.float32)
    if draw(st.booleans()):
        return keys, None
    ids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n,
                        unique=True))
    return keys, np.array(ids, np.uint32)


def _expected(keys, ids):
    ids = np.arange(len(keys), dtype=np.uint32) if ids is None else ids
    order = np.lexsort((ids, keys))
    return keys[order], ids[order]


def _assert_pairs(got_keys, got_ids, keys, ids):
    want_keys, want_ids = _expected(keys, ids)
    got_keys = np.asarray(got_keys, np.float32)
    # Bit patterns, so -0.0 and +0.0 must come back where their ids put them.
    assert got_keys.view(np.uint32).tolist() == want_keys.view(np.uint32).tolist()
    assert np.asarray(got_ids, np.uint32).tolist() == want_ids.tolist()


@pytest.fixture(scope="module")
def served():
    """A live service and its NDJSON server on a private event loop."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box: dict = {}

    async def main():
        async with SortService(devices=2, coalesce_window_ms=0.0) as svc:
            server = await start_server(svc)
            box.update(service=svc, port=server.sockets[0].getsockname()[1],
                       stop=asyncio.Event())
            ready.set()
            await box["stop"].wait()
            server.close()
            await server.wait_closed()

    thread = threading.Thread(target=loop.run_until_complete, args=(main(),))
    thread.start()
    try:
        assert ready.wait(TIMEOUT_S), "server thread did not start"
        yield loop, box["service"], box["port"]
    finally:
        if "stop" in box:
            loop.call_soon_threadsafe(box["stop"].set)
        thread.join(TIMEOUT_S)
        loop.close()


def _through_sort(served, keys, ids):
    for name in repro.engines.available():
        if repro.engines.get(name).capabilities.accepts(len(keys)):
            result = repro.sort(repro.SortRequest(keys=keys, ids=ids), engine=name)
            _assert_pairs(result.keys, result.ids, keys, ids)


def _through_service(served, keys, ids):
    loop, service, _port = served
    result = asyncio.run_coroutine_threadsafe(
        service.submit(repro.SortRequest(keys=keys, ids=ids)), loop
    ).result(TIMEOUT_S)
    _assert_pairs(result.keys, result.ids, keys, ids)


def _through_socket(served, keys, ids):
    _loop, _service, port = served
    line = {"keys": keys.tolist()}
    if ids is not None:
        line["ids"] = ids.tolist()
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall((json.dumps(line) + "\n").encode())
        resp = json.loads(stream.readline())
    assert resp["n"] == len(keys), resp
    _assert_pairs(resp["keys"], resp["ids"], keys, ids)


def _through_store(served, keys, ids):
    # A fresh store's ingest-position ids are the input positions.
    with tempfile.TemporaryDirectory() as path:
        store = SortedStore(path)
        store.insert(keys)
        hits = store.range(-np.inf, np.inf)
    _assert_pairs(hits["key"], hits["id"], keys, None)


@pytest.mark.parametrize(
    "face", [_through_sort, _through_service, _through_socket, _through_store],
    ids=["repro.sort", "SortService.submit", "socket", "SortedStore"],
)
def test_every_face_returns_the_lexsort_order(served, face):
    @settings(max_examples=40)
    @given(pairs())
    def check(case):
        face(served, *case)

    check()
