"""One op table, two faces: the CLI and the socket agree on every op.

Each op in :data:`repro.ops.OPS` runs through the CLI's parse -> bind ->
handler path (:func:`repro.__main__.prepare`, the one ``main`` uses) and
through one NDJSON socket line; both must give the same ``to_json``
dict, and the same error text for a bad parameter.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.__main__ import build_parser, main, prepare
from repro.ops import OPS, Op, Param, bind
from repro.service import SortService, start_server
from repro.store import SortedStore
from repro.workloads.generators import generate_keys

#: Hang ceiling for socket round trips (no pytest-timeout dependency).
TIMEOUT_S = 60.0


def _keys(n: int, seed: int) -> list[float]:
    return generate_keys("uniform", n, seed=seed).tolist()


#: op -> (CLI args, socket fields, bad CLI args, bad socket fields); the
#: bad pair is None for ops that take no parameter.
CASES = {
    "store.insert": (
        ["--n", "128", "--seed", "7"], {"keys": _keys(128, 7)},
        ["--n", "128", "--engine", "no-such-engine"],
        {"keys": _keys(128, 0), "engine": "no-such-engine"},
    ),
    "store.query": (
        ["--lo", "0.25", "--hi", "0.75"], {"lo": 0.25, "hi": 0.75},
        ["--lo", "low", "--hi", "1"], {"lo": "low", "hi": 1},
    ),
    "store.topk": (["--k", "5"], {"k": 5}, ["--k", "ten"], {"k": "ten"}),
    "store.compact": (
        ["--fan-in", "2"], {"fan_in": 2}, ["--devices", "x"], {"devices": "x"},
    ),
    "store.stats": ([], {}, None, None),
    "fleet.replay": (
        ["--scenario", "flood", "--duration-ms", "300", "--policy",
         "fifo-priority", "--autoscale", "--max-devices", "6"],
        {"scenario": "flood", "duration_ms": 300, "policy": "fifo-priority",
         "autoscale": True, "max_devices": 6},
        ["--duration-ms", "long"], {"duration_ms": "long"},
    ),
    "fleet.compare": (
        ["--scenario", "burst", "--duration-ms", "300", "--devices", "2"],
        {"scenario": "burst", "duration_ms": 300.0, "devices": 2},
        ["--scenario", "no-such-scenario"], {"scenario": "no-such-scenario"},
    ),
    "fleet.policies": ([], {}, None, None),
}


def test_every_op_has_a_parity_case():
    assert set(CASES) == set(OPS)


def _populated(path) -> str:
    """A store directory holding three runs, reopened fresh by each face."""
    store = SortedStore(path, engine="cpu-std")
    for seed in range(3):
        store.insert(generate_keys("uniform", 96, seed=seed))
    return str(path)


def _cli(name: str, argv: list[str], path: str):
    """The CLI face: parse -> bind -> handler -> ``to_json``."""
    group, action = name.split(".")
    store = ["--path", path] if group == "store" else []
    op, args = prepare(build_parser().parse_args([group, action, *store, *argv]))
    return op.to_json(op.handler(args))


def _socket(name: str, fields: dict, path: str) -> dict:
    """The socket face: one line against a server with a fresh store."""
    group, action = name.split(".")

    async def run():
        async with SortService(devices=1) as svc:
            server = await start_server(svc, store=SortedStore(path))
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                line = {"op": group, "action": action, **fields}
                writer.write((json.dumps(line) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

    response = asyncio.run(asyncio.wait_for(run(), TIMEOUT_S))
    assert response.pop("id") is None
    return response


@pytest.mark.parametrize("name", sorted(OPS))
def test_cli_and_socket_reply_alike(name, tmp_path):
    argv, fields, _bad_argv, _bad_fields = CASES[name]
    cli = _cli(name, argv, _populated(tmp_path / "cli"))
    wire = _socket(name, fields, _populated(tmp_path / "wire"))
    assert "error" not in wire
    assert cli == wire


@pytest.mark.parametrize(
    "name", sorted(name for name, case in CASES.items() if case[2] is not None)
)
def test_cli_and_socket_reject_alike(name, tmp_path):
    _argv, _fields, bad_argv, bad_fields = CASES[name]
    with pytest.raises(repro.ReproError) as err:
        _cli(name, bad_argv, _populated(tmp_path / "cli"))
    wire = _socket(name, bad_fields, _populated(tmp_path / "wire"))
    assert wire == {"error": str(err.value)}


def test_missing_required_parameter_reads_the_same(tmp_path, capsys):
    path = _populated(tmp_path / "cli")
    assert main(["store", "query", "--path", path, "--lo", "0.1"]) == 2
    cli = capsys.readouterr().err.strip()
    wire = _socket("store.query", {"lo": 0.1}, _populated(tmp_path / "wire"))
    assert cli == f"error: {wire['error']}" == 'error: store.query needs "hi"'


class TestBind:
    OP = Op("demo", (
        Param("n", int, 3),
        Param("x", float, required=True),
        Param("mode", choices=("a", "b"), default="a"),
        Param("flag", bool, False),
    ), handler=None)

    def test_defaults_and_string_parsing(self):
        assert bind(self.OP, {"x": "0.5", "n": "7", "op": "ignored"}) == {
            "n": 7, "x": 0.5, "mode": "a", "flag": False,
        }

    def test_json_ints_widen_to_float_but_not_the_reverse(self):
        assert bind(self.OP, {"x": 2})["x"] == 2.0
        assert isinstance(bind(self.OP, {"x": 2})["x"], float)
        with pytest.raises(repro.ReproError, match="n must be int, not 2.5"):
            bind(self.OP, {"x": 1.0, "n": 2.5})

    @pytest.mark.parametrize(
        ("fields", "error"),
        [
            ({}, 'demo needs "x"'),
            ({"x": 1.0, "n": True}, "demo: n must be int, not True"),
            ({"x": 1.0, "flag": "yes"}, "demo: flag must be bool, not 'yes'"),
            ({"x": 1.0, "mode": "c"},
             "demo: mode must be one of ['a', 'b'], not 'c'"),
        ],
    )
    def test_errors(self, fields, error):
        with pytest.raises(repro.ReproError) as err:
            bind(self.OP, fields)
        assert str(err.value) == error
