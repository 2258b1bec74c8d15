"""Service instrumentation: registry wiring, spans, and the wire ops.

The acceptance property lives here: the counters an ``{"op": "metrics"}``
exposition reports must exactly match a simultaneously-taken
``ServiceStats.snapshot()`` -- which holds by construction, because every
stats-mirroring metric is callback-backed and reads the live record at
scrape time.

``goldens/batch_trace.json`` pins the Chrome trace of one hand-built
batch; regenerate it after an intended trace change with::

    PYTHONPATH=src python tests/service/test_instrumentation.py regen
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import parse_exposition, read_samples
from repro.planner import default_planner
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
                service,
                "127.0.0.1",
                0,
                limit=3,
                on_ready=ready.set_result,
                metrics_out=metrics_out,
                trace_out=trace_out,
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

    # The service plans with the process-wide single-device planner, so
    # the metrics count its cache; clear it to start the count from zero.
    cache = default_planner(1).cache
    cache.clear()
    svc = SortService(devices=1, coalesce_window_ms=0.0)
    inst = instrument(svc)
    submit_twice(svc)
    hits = inst.registry.get("repro_planner_cache_hits_total").value
    misses = inst.registry.get("repro_planner_cache_misses_total").value
    assert (hits, misses) == (cache.hits, cache.misses)
    assert misses >= 1
    assert hits + misses >= 2
    ratio = inst.registry.get("repro_planner_cache_hit_ratio").value
    assert ratio == pytest.approx(hits / (hits + misses))


def _plan_error(inst) -> tuple[float, float]:
    """``(count, sum)`` of the planner relative-error histogram."""
    samples = {
        s.name: s.value
        for s in inst.registry.get("repro_planner_relative_error").samples()
    }
    return (
        samples["repro_planner_relative_error_count"],
        samples["repro_planner_relative_error_sum"],
    )


def test_planner_relative_error_observes_every_routed_request(rng):
    from repro.engines.base import SortRequest

    # Single-device plans: cpu-std below ~60k pairs, abisort-brook above.
    sizes = (256, 1000, 4096, 20000, 65536, 100000)
    svc = SortService(devices=2, coalesce_window_ms=5.0, max_batch=8)
    inst = instrument(svc)
    results = svc.map(
        [SortRequest(keys=rng.random(n, dtype=np.float32)) for n in sizes]
    )
    assert all(r.plan is not None for r in results)
    assert {r.engine for r in results} == {"cpu-std", "abisort-brook"}
    count, total = _plan_error(inst)
    assert count == len(sizes)
    assert total < 0.5


def test_planner_relative_error_is_exact_for_a_cpu_std_plan(rng):
    from repro.engines.base import SortRequest

    svc = SortService(devices=1, coalesce_window_ms=0.0)
    inst = instrument(svc)
    (result,) = svc.map([SortRequest(keys=rng.random(4096, dtype=np.float32))])
    assert result.engine == "cpu-std"
    count, total = _plan_error(inst)
    assert count == 1
    assert total < 1e-9


def test_planner_relative_error_counts_every_request_across_devices(rng):
    from repro.engines.base import SortRequest

    # Four devices run their shares on four executor threads at once; the
    # histogram is observed on the loop, so no observation is lost.
    sizes = [256 << (i % 5) for i in range(96)]
    svc = SortService(devices=4, coalesce_window_ms=5.0, max_batch=16)
    inst = instrument(svc)
    results = svc.map(
        [SortRequest(keys=rng.random(n, dtype=np.float32)) for n in sizes]
    )
    assert all(r.plan is not None for r in results)
    busy = inst.registry.get("repro_service_device_busy_ms_total").samples()
    assert sum(s.value > 0 for s in busy) > 1  # shares ran on several devices
    count, _total = _plan_error(inst)
    assert count == len(sizes)


def test_pipeline_appends_events_and_builds_spans_only_on_export(
    rng, monkeypatch
):
    from repro.engines.base import SortRequest
    from repro.obs.trace import Span
    from repro.service import metrics

    built = []

    class CountedSpan(Span):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(metrics, "Span", CountedSpan)
    svc = SortService(devices=2, coalesce_window_ms=5.0, max_batch=4)
    inst = instrument(svc)
    svc.map([SortRequest(keys=rng.random(64, dtype=np.float32))
             for _ in range(8)])
    events = inst.spans.events()
    assert [e.kind for e in events].count("complete") == 8
    assert [e.kind for e in events].count("batch") == svc.stats.batches
    assert built == []
    trace = inst.spans.to_chrome()
    assert len(built) == len(trace["traceEvents"]) > 0


#: The Chrome trace of :func:`_pinned_batch_trace`, recorded once; the
#: exported bytes must not change while the trace stays the same.
TRACE_GOLDEN = Path(__file__).parent / "goldens" / "batch_trace.json"


def _pinned_batch_trace():
    """``to_chrome()`` of one hand-built two-request batch on two devices.

    The clock, the instrumentation's origin and the tickets' submit
    instants are fixed, so the trace is a pure function of the batch:
    one planner-routed ticket and one pinned ticket, executed, placed on
    devices 0 and 1 and scheduled by a real two-device pipeline.
    """
    from repro.cluster.device import make_devices
    from repro.cluster.scheduler import Scheduler
    from repro.engines.auto import execute
    from repro.engines.base import SortRequest
    from repro.engines.telemetry import pipeline_tasks_for_results
    from repro.service.service import _Ticket
    from repro.workloads.generators import generate_keys

    svc = SortService(devices=2)
    inst = instrument(svc)
    inst._t0 = 100.0
    inst.now_ms = lambda: 40.0
    svc.stats.batches = 3

    routed = SortRequest(keys=generate_keys("uniform", 4096, seed=1))
    plan = default_planner(1).plan(routed)
    pinned = SortRequest(keys=generate_keys("uniform", 1024, seed=2))
    tickets = [
        _Ticket(routed, None, None, submitted=100.0125, coalesce_ms=1.5,
                plan=plan, exec_engine=plan.engine),
        _Ticket(pinned, "abisort", None, submitted=100.0131,
                coalesce_ms=0.9, exec_engine="abisort"),
    ]
    for ticket, wait_ms in zip(tickets, (2.25, 4.75)):
        ticket.result = execute(ticket.exec_engine, ticket.request, ticket.plan)
        ticket.result.telemetry.queue_wait_ms = wait_ms
    devices = make_devices(2)
    schedule = Scheduler(devices).run(pipeline_tasks_for_results(
        [t.result for t in tickets], [0, 1], devices[0].link,
    ))
    inst.on_batch([(tickets[0], 0), (tickets[1], 1)], schedule)
    return inst.spans.to_chrome()


def _trace_text(trace: dict) -> str:
    return json.dumps(trace, indent=2, sort_keys=True) + "\n"


def test_batch_trace_matches_golden():
    trace = _pinned_batch_trace()
    assert _trace_text(trace) == TRACE_GOLDEN.read_text()
    cats = [event["cat"] for event in trace["traceEvents"]]
    assert cats.count("coalesce") == cats.count("queue") == 2
    assert cats[-1] == "batch"


if __name__ == "__main__":
    if sys.argv[1:] == ["regen"]:
        TRACE_GOLDEN.parent.mkdir(exist_ok=True)
        TRACE_GOLDEN.write_text(_trace_text(_pinned_batch_trace()))
        print(f"regenerated {TRACE_GOLDEN.name}")
    else:
        print(__doc__)
