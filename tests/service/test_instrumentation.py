"""Service instrumentation: registry wiring, spans, and the wire ops.

The acceptance property lives here: the counters an ``{"op": "metrics"}``
exposition reports must exactly match a simultaneously-taken
``ServiceStats.snapshot()`` -- which holds by construction, because every
stats-mirroring metric is callback-backed and reads the live record at
scrape time.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.obs import parse_exposition, read_samples
from repro.service import (
    ServiceConfig,
    SortService,
    instrument,
    request_op,
    request_sort,
    serve_forever,
    start_server,
)

TIMEOUT_S = 60.0


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT_S))


async def _open(service):
    server = await start_server(service)
    return server, server.sockets[0].getsockname()[1]


#: ``(snapshot field, metric name)`` pairs the acceptance check compares.
MIRRORED = [
    ("submitted", "repro_service_submitted_total"),
    ("completed", "repro_service_completed_total"),
    ("rejected", "repro_service_rejected_total"),
    ("failed", "repro_service_failed_total"),
    ("batches", "repro_service_batches_total"),
    ("largest_batch", "repro_service_largest_batch"),
]


def test_exposition_counters_match_simultaneous_snapshot(rng):
    async def run():
        async with SortService(devices=2, coalesce_window_ms=1.0) as svc:
            inst = instrument(svc)
            server, port = await _open(svc)
            try:
                for i in range(6):
                    keys = rng.random(32, dtype=np.float32)
                    await request_sort("127.0.0.1", port, keys, tag=i)
                response = await request_op("127.0.0.1", port, "metrics")
                snapshot = svc.stats.snapshot()
            finally:
                server.close()
                await server.wait_closed()
            return inst, response, snapshot

    inst, response, snapshot = _run(run())
    parsed = parse_exposition(response["metrics"])
    for field, metric in MIRRORED:
        value = parsed[metric].samples[(metric, ())]
        assert value == getattr(snapshot, field), (field, metric)
    # The same identity holds reading the registry directly.
    assert inst.registry.get(
        "repro_service_submitted_total"
    ).value == snapshot.submitted == 6
    # Distribution metrics saw every completed request.
    waits = parsed["repro_service_queue_wait_ms"].samples
    assert waits[("repro_service_queue_wait_ms_count", ())] == (
        snapshot.completed
    )
    # Uptime is stamped and live (the scrape preceded the snapshot, so
    # exact equality is not expected for a clock-derived value).
    assert snapshot.uptime_s > 0
    assert 0 < parsed["repro_service_uptime_seconds"].samples[
        ("repro_service_uptime_seconds", ())
    ] <= snapshot.uptime_s


def test_trace_op_returns_request_and_stage_spans(rng):
    async def run():
        async with SortService(devices=2, coalesce_window_ms=1.0) as svc:
            instrument(svc)
            server, port = await _open(svc)
            try:
                await request_sort(
                    "127.0.0.1", port, rng.random(64, dtype=np.float32)
                )
                return await request_op("127.0.0.1", port, "trace")
            finally:
                server.close()
                await server.wait_closed()

    trace = _run(run())["trace"]
    assert trace["displayTimeUnit"] == "ms"
    cats = {event["cat"] for event in trace["traceEvents"]}
    assert {"coalesce", "queue", "sort", "batch"} <= cats
    for event in trace["traceEvents"]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0


def test_metrics_ops_error_without_instrumentation():
    async def run():
        async with SortService(devices=1) as svc:
            server, port = await _open(svc)
            try:
                metrics = await request_op("127.0.0.1", port, "metrics")
                trace = await request_op("127.0.0.1", port, "trace")
            finally:
                server.close()
                await server.wait_closed()
            return metrics, trace

    metrics, trace = _run(run())
    for response in (metrics, trace):
        assert "no metrics attached" in response["error"]
        # The remedy named is real: no server flag gates instrumentation.
        assert "repro.service.instrument" in response["error"]
        assert "--metrics" not in response["error"]


def test_serve_forever_writes_metrics_ndjson_and_chrome_trace(
    rng, tmp_path
):
    metrics_out = tmp_path / "metrics.ndjson"
    trace_out = tmp_path / "trace.json"

    async def run():
        service = SortService(ServiceConfig(devices=2))
        instrument(service)
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()
        serve_task = asyncio.create_task(
            serve_forever(
                None,
                "127.0.0.1",
                0,
                limit=3,
                on_ready=ready.set_result,
                service=service,
                metrics_out=metrics_out,
                trace_out=trace_out,
                sample_every_s=0.05,
            )
        )
        port = await ready
        for i in range(3):
            await request_sort(
                "127.0.0.1", port, rng.random(16, dtype=np.float32), tag=i
            )
        await serve_task

    _run(run())
    samples = read_samples(metrics_out)  # validates every line's schema
    assert samples[-1]["seq"] == len(samples) - 1
    final = {
        (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
        for m in samples[-1]["metrics"]
    }
    assert final[("repro_service_completed_total", ())] == 3
    trace = json.loads(trace_out.read_text())
    assert any(e["cat"] == "batch" for e in trace["traceEvents"])


def test_store_metrics_bind_into_the_service_registry(rng, tmp_path):
    from repro.store import SortedStore

    svc = SortService(devices=1)
    store = SortedStore(tmp_path / "store")
    inst = instrument(svc, store=store)
    store.insert(rng.random(256, dtype=np.float32))
    parsed = parse_exposition(inst.registry.expose())
    assert parsed["repro_store_ingested_pairs_total"].samples[
        ("repro_store_ingested_pairs_total", ())
    ] == 256
    assert parsed["repro_store_runs"].samples[("repro_store_runs", ())] == 1


def test_planner_cache_metrics_track_repeat_shapes(rng):
    def submit_twice(svc):
        keys = rng.random(128, dtype=np.float32)
        svc.map([_request(keys), _request(keys)])

    def _request(keys):
        from repro.engines.base import SortRequest

        return SortRequest(keys=keys)

    svc = SortService(devices=1, coalesce_window_ms=0.0)
    inst = instrument(svc)
    submit_twice(svc)
    hits = inst.registry.get("repro_planner_cache_hits_total").value
    misses = inst.registry.get("repro_planner_cache_misses_total").value
    assert misses >= 1
    assert hits + misses >= 2
    ratio = inst.registry.get("repro_planner_cache_hit_ratio").value
    assert ratio == pytest.approx(hits / (hits + misses))
