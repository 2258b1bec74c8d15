"""Service fault injection and per-device execution order.

A batch that mixes good requests, an engine that raises and a cancelled
submitter must still resolve every live future, count exactly one
failure and release every admission slot; ``close()`` must seal a batch
held open under a long window instead of waiting it out.  Separately, a
device sorts one request at a time, in batch order.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

import repro
from repro.errors import CapabilityError
from repro.service import SortService

#: Hang ceiling for a whole scenario: a stranded future fails the test.
TIMEOUT_S = 60.0


class _Recorder:
    """Stub observer: keeps every ``on_execute`` call and batch count.

    Build it inside the test's coroutine: ``on_execute`` runs on an
    executor thread, so it sets the loop-bound event through the loop
    captured here.
    """

    def __init__(self):
        self.executions: list[tuple[float, float, object]] = []
        self.batches = 0
        self.first_execution = asyncio.Event()
        self._loop = asyncio.get_running_loop()

    def on_execute(self, device, busy_ms, ticket):
        started = ticket.submitted + ticket.result.telemetry.queue_wait_ms / 1e3
        self.executions.append((started, time.perf_counter(), ticket.request))
        self._loop.call_soon_threadsafe(self.first_execution.set)

    def on_batch(self, done, schedule):
        self.batches += 1


def _request(rng, n=1024):
    return repro.SortRequest(keys=rng.random(n, dtype=np.float32))


def test_faults_in_one_batch_and_close_mid_flight(rng):
    good = [(_request(rng), engine) for engine in ("cpu-std", None) * 3]
    failing = _request(rng, 1000)  # not a power of two: the network raises
    late = [(_request(rng), "cpu-std") for _ in range(2)]

    async def run():
        svc = SortService(devices=2, coalesce_window_ms=10_000.0, max_batch=64)
        recorder = _Recorder()
        svc.observer = recorder
        await svc.start()
        good_tasks = [
            asyncio.create_task(svc.submit(r, engine=e)) for r, e in good
        ]
        failing_task = asyncio.create_task(
            svc.submit(failing, engine="bitonic-network")
        )
        cancelled = asyncio.create_task(
            svc.submit(_request(rng), engine="cpu-std")
        )
        await asyncio.sleep(0)  # every submit is admitted into the batch
        assert svc.pending == len(good) + 2
        cancelled.cancel()
        await asyncio.sleep(0)
        assert cancelled.cancelled()

        await svc.flush()  # seal batch 1; it starts executing
        await recorder.first_execution.wait()
        assert recorder.batches == 0  # batch 1 is still executing
        late_tasks = [
            asyncio.create_task(svc.submit(r, engine=e)) for r, e in late
        ]
        await asyncio.sleep(0)  # batch 2 forms under the 10 s window

        began = time.perf_counter()
        await svc.close()
        elapsed = time.perf_counter() - began

        good_results = await asyncio.gather(*good_tasks)
        late_results = await asyncio.gather(*late_tasks)
        with pytest.raises(CapabilityError):
            await failing_task
        return svc, elapsed, good_results, late_results

    svc, elapsed, good_results, late_results = asyncio.run(
        asyncio.wait_for(run(), TIMEOUT_S)
    )
    assert elapsed < 1.0
    for (request, engine), result in zip(good + late, good_results + late_results):
        direct = repro.sort(request, engine=engine)
        assert np.array_equal(result.values, direct.values)
    assert svc.stats.failed == 1
    assert svc.stats.batches == 2
    assert svc.pending == 0
    assert not svc.is_running


def test_a_device_finishes_one_batch_before_starting_the_next(rng):
    requests = [_request(rng, 4096) for _ in range(4)]

    async def run():
        svc = SortService(devices=1, coalesce_window_ms=10_000.0, max_batch=2)
        recorder = _Recorder()
        svc.observer = recorder
        async with svc:
            await asyncio.gather(
                *(svc.submit(r, engine="cpu-std") for r in requests)
            )
        return svc, recorder

    svc, recorder = asyncio.run(asyncio.wait_for(run(), TIMEOUT_S))
    assert svc.stats.batches == 2
    spans = {
        id(request): (start, end)
        for start, end, request in recorder.executions
    }
    first = [spans[id(r)] for r in requests[:2]]
    second = [spans[id(r)] for r in requests[2:]]
    assert max(end for _s, end in first) <= min(start for start, _e in second)
    ordered = sorted(spans.values())
    for (_s, end), (start, _e) in zip(ordered, ordered[1:]):
        assert end <= start  # one sort at a time on the device
