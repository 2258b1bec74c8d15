"""E30 -- instrumentation overhead: the observed service vs the bare one.

Observability must not distort what it observes.  The same mixed-size
service workload runs twice -- once on a bare ``SortService``, once with
the full :func:`repro.service.metrics.instrument` attachment (callback
metrics, histograms, the request event log) -- interleaved over :data:`ROUNDS`
rounds with the best (minimum) wall time kept per variant.  A round's
timed run of each variant maps the request set through its service
:data:`REPEATS` times, the two variants taking turns map by map, so both
see the same stretch of host time and one run lasts ~0.1 s on a 2-vCPU
host instead of ~25 ms.  The gate: the
instrumented run's wall time may exceed the bare run's by at most
:data:`GATE` (default 5 % -- the issue's acceptance bar; CI can relax it
via ``REPRO_OBS_GATE`` for shared-runner jitter).

The design makes the margin comfortable: every stats-mirroring metric is
callback-backed (it costs nothing until scraped), so the hot path adds
only the per-batch histogram observations and one event-ring append per
request and per batch.  A scrape and a trace export are also taken at
the end, so the exposition path and the span rendering are exercised
(outside the timed region, as in production); ``spans_recorded`` counts
the spans that export builds.
"""

from __future__ import annotations

import os
import time

import repro
from repro.obs import parse_exposition
from repro.service import ServiceConfig, SortService, instrument
from repro.stream.gpu_model import GEFORCE_7800_GTX, PCIE_SYSTEM
from repro.workloads.generators import generate_keys

IN_FLIGHT = 64
DEVICES = 4
#: Mixed request sizes, as in the E25 throughput benchmark.
SIZES = tuple(1 << e for e in (10, 11, 12, 13)) * (IN_FLIGHT // 4)
#: Times each timed run maps the request set through its service.
REPEATS = 4
#: Interleaved timing rounds; the minimum per variant is compared.
ROUNDS = 9
#: Allowed relative wall-time overhead of instrumentation.
GATE = float(os.environ.get("REPRO_OBS_GATE", "0.05"))


def _requests() -> list[repro.SortRequest]:
    return [
        repro.SortRequest(
            keys=generate_keys("uniform", n, seed=i),
            gpu=GEFORCE_7800_GTX,
            host=PCIE_SYSTEM,
        )
        for i, n in enumerate(SIZES)
    ]


def _config() -> ServiceConfig:
    return ServiceConfig(
        devices=DEVICES,
        gpu=GEFORCE_7800_GTX,
        host=PCIE_SYSTEM,
        max_pending=IN_FLIGHT,
        coalesce_window_ms=200.0,
        max_batch=16,
    )


def _timed_map(service: SortService, requests) -> float:
    started = time.perf_counter()
    service.map(requests)
    return time.perf_counter() - started


def _measure() -> dict:
    requests = _requests()
    bare_s, instr_s = [], []
    for _round in range(ROUNDS):
        bare = SortService(_config())
        instrumented = SortService(_config())
        instrument(instrumented)
        bare_total = instr_total = 0.0
        # Alternate which variant goes first (ABBA), so neither always
        # runs on the warmer or the quieter side of a pair.
        for repeat in range(REPEATS):
            if repeat % 2:
                instr_total += _timed_map(instrumented, requests)
                bare_total += _timed_map(bare, requests)
            else:
                bare_total += _timed_map(bare, requests)
                instr_total += _timed_map(instrumented, requests)
        bare_s.append(bare_total)
        instr_s.append(instr_total)
    return {
        "bare_s": min(bare_s),
        "instrumented_s": min(instr_s),
        "service": instrumented,
    }


def test_obs_overhead(benchmark, bench_json):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    bare_s = measured["bare_s"]
    instr_s = measured["instrumented_s"]
    overhead = instr_s / bare_s - 1.0

    # The instrumented service really observed the run (scrape after the
    # timed region, exactly as a production scrape would).
    service = measured["service"]
    parsed = parse_exposition(service.observer.registry.expose())
    submitted = parsed["repro_service_submitted_total"].samples[
        ("repro_service_submitted_total", ())
    ]
    assert submitted == IN_FLIGHT * REPEATS == service.stats.submitted
    assert len(service.observer.spans) > 0

    rows = {
        "in_flight": IN_FLIGHT,
        "devices": DEVICES,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "bare_s": bare_s,
        "instrumented_s": instr_s,
        "overhead": overhead,
        "gate": GATE,
        "spans_recorded": len(service.observer.spans),
    }
    bench_json(**rows)
    print(
        f"\ninstrumentation overhead at {IN_FLIGHT} requests x {REPEATS} "
        f"on {DEVICES} modeled devices (best of {ROUNDS}):"
    )
    print(f"  bare service:         {bare_s * 1e3:8.1f} ms wall")
    print(f"  instrumented service: {instr_s * 1e3:8.1f} ms wall")
    print(
        f"  overhead: {overhead * 100:+.2f}% "
        f"(gate <= {GATE * 100:.0f}%)"
    )
    assert overhead <= GATE, (
        f"instrumentation overhead {overhead * 100:.2f}% exceeds the "
        f"{GATE * 100:.0f}% acceptance bar"
    )
