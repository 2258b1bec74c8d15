"""The fleet over the wire: ``{"op": "fleet"}`` lines on the NDJSON socket."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.fleet import Autoscaler, FleetScheduler, compare_policies
from repro.fleet.policy import POLICIES
from repro.service import SortService, start_server
from repro.workloads.traces import scenario_trace

#: Hang ceiling for socket round trips (no pytest-timeout dependency).
TIMEOUT_S = 60.0


def _ask(*messages: dict) -> list[dict]:
    """Send ``messages`` on one connection; the responses, by ``id``."""

    async def run():
        async with SortService(devices=1) as svc:
            server = await start_server(svc)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for i, message in enumerate(messages):
                    line = {"op": "fleet", "id": i, **message}
                    writer.write((json.dumps(line) + "\n").encode())
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in messages
                ]
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
        by_id = {r.pop("id"): r for r in responses}
        return [by_id[i] for i in range(len(messages))]

    return asyncio.run(asyncio.wait_for(run(), TIMEOUT_S))


def test_replay_by_scenario_matches_the_library():
    (resp,) = _ask({"action": "replay", "scenario": "burst", "seed": 2,
                    "policy": "deadline-edf", "devices": 3})
    trace = scenario_trace("burst", seed=2)
    expect = FleetScheduler(trace, "deadline-edf", devices=3).run()
    assert resp == expect.to_json()


def test_replay_of_an_inline_trace():
    trace = scenario_trace("diurnal", seed=3, duration_ms=400.0)
    (resp,) = _ask({"action": "replay", "trace": trace.to_json(),
                    "policy": "fifo-priority", "queue_bound": 8})
    expect = FleetScheduler(trace, "fifo-priority", queue_bound=8).run()
    assert resp == expect.to_json()
    assert resp["trace"] == trace.name and resp["policy"] == "fifo-priority"


def test_compare_replies_with_every_policy_under_reports():
    (resp,) = _ask({"action": "compare", "scenario": "flood",
                    "duration_ms": 300.0})
    expect = compare_policies(scenario_trace("flood", duration_ms=300.0))
    assert set(resp) == {"reports"}
    assert resp["reports"] == {n: r.to_json() for n, r in expect.items()}
    assert set(resp["reports"]) == set(POLICIES)


def test_policies():
    assert _ask({"action": "policies"}) == [{"policies": sorted(POLICIES)}]


def test_autoscale_fields_reach_the_replay():
    fixed, scaled = _ask(
        {"action": "replay", "scenario": "burst"},
        {"action": "replay", "scenario": "burst", "autoscale": True,
         "min_devices": 1, "max_devices": 8},
    )
    expect = FleetScheduler(
        scenario_trace("burst"),
        devices=4,
        autoscaler=Autoscaler(min_devices=1, max_devices=8),
    ).run().to_json()
    assert scaled == expect
    assert (fixed["pool_min"], fixed["pool_max"]) == (4, 4)
    assert (scaled["pool_min"], scaled["pool_max"]) != (4, 4)


@pytest.mark.parametrize(
    ("message", "error"),
    [
        ({"action": "shrink"}, "unknown fleet action 'shrink'"),
        ({"action": "replay", "devices": "many"},
         "fleet.replay: devices must be int, not 'many'"),
        ({"action": "compare", "autoscale": "yes"},
         "fleet.compare: autoscale must be bool, not 'yes'"),
    ],
)
def test_bad_lines_get_one_error_line(message, error):
    assert _ask(message) == [{"error": error}]
