"""The sort service: bit-identity, admission control, coalescing, stats.

The acceptance bar of the service layer: results bit-identical to direct
``repro.sort`` for every engine, bounded queues that reject with a
retry-after hint instead of growing, and queue-wait / coalesce /
service-makespan telemetry that flows into the standard aggregation.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.cluster.scheduler import lpt
from repro.engines.base import SortTelemetry
from repro.errors import (
    CapabilityError,
    ServiceError,
    ServiceOverloadError,
    SortInputError,
)
from repro.service import ServiceConfig, SortService
from repro.service.config import RETRY_AFTER_MS

# Power-of-two length so the sorting-network engines are feasible too.
N = 1 << 10

ENGINE_GRID = [
    None,  # the service default: the cost-model planner
    "auto",
    "abisort",
    "abisort-overlapped",
    "abisort-sequential",
    "bitonic-network",
    "odd-even-merge",
    "periodic-balanced",
    "odd-even-transition",
    "cpu-quicksort",
    "cpu-std",
    "external",
    "sharded-abisort",
]


def _request(rng, n=N):
    return repro.SortRequest(keys=rng.random(n, dtype=np.float32))


@pytest.mark.parametrize("engine", ENGINE_GRID, ids=lambda e: e or "planned")
def test_bit_identical_to_direct_sort(engine, rng):
    req = _request(rng)
    direct = repro.sort(req, engine=engine)
    [served] = SortService(devices=3, coalesce_window_ms=1.0).map(
        [req], engine=engine
    )
    assert np.array_equal(served.values, direct.values)
    assert served.keys.dtype == direct.keys.dtype


def test_map_preserves_request_order(rng):
    sizes = [64, 1024, 16, 512, 2, 256, 128, 8]
    reqs = [_request(rng, n) for n in sizes]
    results = SortService(devices=4, coalesce_window_ms=20.0).map(
        reqs, engine="cpu-std"
    )
    assert [len(r) for r in results] == sizes
    for req, res in zip(reqs, results):
        assert np.array_equal(res.values, repro.sort(req, engine="cpu-std").values)


def test_trivial_inputs_served_uniformly(rng):
    empty = repro.SortRequest(keys=np.array([], dtype=np.float32))
    one = repro.SortRequest(keys=np.array([0.5], dtype=np.float32))
    res_empty, res_one = SortService(devices=2).map([empty, one])
    assert len(res_empty) == 0
    assert len(res_one) == 1
    assert res_one.telemetry.stream_ops == 0


def test_service_telemetry_fields(rng):
    svc = SortService(devices=2, coalesce_window_ms=10.0, max_batch=4)
    results = svc.map([_request(rng, 256) for _ in range(4)], engine="abisort")
    makespans = {r.telemetry.service_makespan_ms for r in results}
    for res in results:
        t = res.telemetry
        assert t.queue_wait_ms >= t.coalesce_ms >= 0.0
        assert t.service_makespan_ms > 0.0
    # Requests coalesced into one batch all report that batch's makespan.
    assert svc.stats.batches >= 1
    assert len(makespans) == svc.stats.batches
    # The stats aggregate is the standard telemetry summation.
    assert svc.stats.telemetry.requests == 4
    assert svc.stats.telemetry.queue_wait_ms == pytest.approx(
        sum(r.telemetry.queue_wait_ms for r in results)
    )
    assert svc.stats.completed == 4
    assert "service makespan" in svc.stats.telemetry.summary()


def test_telemetry_add_carries_service_fields():
    a = SortTelemetry(queue_wait_ms=2.0, coalesce_ms=1.0, service_makespan_ms=5.0)
    b = SortTelemetry(queue_wait_ms=3.0, coalesce_ms=0.5, service_makespan_ms=5.0)
    a.add(b)
    assert a.queue_wait_ms == 5.0
    assert a.coalesce_ms == 1.5
    assert a.service_makespan_ms == 10.0


def test_admission_control_rejects_with_retry_after(rng):
    async def run():
        req = _request(rng, 64)
        config = ServiceConfig(
            devices=1,
            max_pending=3,
            coalesce_window_ms=10_000.0,
            max_batch=100,
        )
        async with SortService(config) as svc:
            tasks = [
                asyncio.create_task(svc.submit(req, engine="cpu-std"))
                for _ in range(3)
            ]
            for _ in range(4):  # let every submit reach its admission check
                await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadError) as excinfo:
                await svc.submit(req, engine="cpu-std")
            assert excinfo.value.retry_after_ms == RETRY_AFTER_MS
            assert svc.stats.rejected == 1
            await svc.flush()  # seal the held-open batch; work drains
            results = await asyncio.gather(*tasks)
            assert all(len(r) == 64 for r in results)
        # Admitted work completed despite the rejection.
        assert svc.stats.completed == 3

    asyncio.run(run())


def test_concurrent_submits_coalesce(rng):
    async def run():
        reqs = [_request(rng, 128) for _ in range(8)]
        async with SortService(
            devices=4, coalesce_window_ms=50.0, max_batch=8
        ) as svc:
            results = await asyncio.gather(
                *(svc.submit(r, engine="cpu-std") for r in reqs)
            )
            assert len(results) == 8
        # All eight arrived inside one window: far fewer batches than
        # requests, and the largest batch saw real coalescing.
        assert svc.stats.batches < 8
        assert svc.stats.largest_batch >= 2
        assert svc.stats.modeled_speedup >= 1.0
        return results

    results = asyncio.run(run())
    for res in results:
        assert np.all(res.keys[:-1] <= res.keys[1:])


def test_execution_errors_propagate_and_count(rng):
    async def run():
        async with SortService(devices=1, coalesce_window_ms=1.0) as svc:
            with pytest.raises(CapabilityError):
                # 1000 is not a power of two: infeasible for the networks.
                await svc.submit(
                    _request(rng, 1000), engine="bitonic-network"
                )
            # The service survives the failure and keeps serving.
            ok = await svc.submit(_request(rng, 1000), engine="cpu-std")
            assert len(ok) == 1000
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1

    asyncio.run(run())


@pytest.mark.parametrize("engine", [None, "cpu-std", "sharded-abisort"])
def test_out_of_contract_requests_raise_and_release_their_slot(engine):
    repeated = repro.SortRequest(
        keys=np.array([1, 1, 0, 2], np.float32), ids=np.array([3, 3, 1, 2])
    )
    nan = repro.SortRequest(keys=np.array([1.0, np.nan], np.float32))

    async def run():
        async with SortService(
            devices=1, max_pending=1, coalesce_window_ms=1.0
        ) as svc:
            for request, match in ((repeated, "unique"), (nan, "NaN")):
                with pytest.raises(SortInputError, match=match):
                    await svc.submit(request, engine=engine)
                assert svc.pending == 0
            # max_pending=1: only a released slot admits the next request.
            ok = await svc.submit(repro.SortRequest(keys=[2.0, 1.0]), engine=engine)
            assert list(ok.ids) == [1, 0]
        assert svc.stats.failed == 2
        assert svc.stats.rejected == 0

    asyncio.run(run())


def test_mixed_pinned_and_planned_batch(rng):
    async def run():
        async with SortService(
            devices=2, coalesce_window_ms=50.0, max_batch=4
        ) as svc:
            pinned = svc.submit(_request(rng, 512), engine="cpu-std")
            planned = svc.submit(_request(rng, 512))
            res_pinned, res_planned = await asyncio.gather(pinned, planned)
            assert res_pinned.engine == "cpu-std"
            assert res_planned.plan is not None  # planner routed it
            return res_pinned, res_planned

    res_pinned, res_planned = asyncio.run(run())
    assert np.all(res_pinned.keys[:-1] <= res_pinned.keys[1:])
    assert np.all(res_planned.keys[:-1] <= res_planned.keys[1:])


def test_lifecycle_misuse_raises(rng):
    svc = SortService(devices=1)

    async def submit_unstarted():
        await svc.submit(_request(rng, 4))

    with pytest.raises(ServiceError):
        asyncio.run(submit_unstarted())

    async def start_twice():
        async with svc:
            with pytest.raises(ServiceError):
                await svc.start()
            with pytest.raises(ServiceError):
                svc.map([_request(rng, 4)])

    asyncio.run(start_twice())
    assert not svc.is_running


def test_config_validation():
    with pytest.raises(ServiceError):
        ServiceConfig(devices=0)
    with pytest.raises(ServiceError):
        ServiceConfig(max_pending=0)
    with pytest.raises(ServiceError):
        ServiceConfig(max_batch=0)
    with pytest.raises(ServiceError):
        ServiceConfig(coalesce_window_ms=-1.0)
    with pytest.raises(ServiceError):
        SortService(ServiceConfig(), devices=2)


def test_cancelled_submit_does_not_strand_batch(rng):
    async def run():
        async with SortService(
            devices=1, coalesce_window_ms=50.0, max_batch=4
        ) as svc:
            doomed = asyncio.create_task(
                svc.submit(_request(rng, 256), engine="cpu-std")
            )
            other = asyncio.create_task(
                svc.submit(_request(rng, 256), engine="cpu-std")
            )
            await asyncio.sleep(0)  # both admitted into the same window
            doomed.cancel()
            result = await other  # must not hang on the cancelled peer
            assert len(result) == 256
            with pytest.raises(asyncio.CancelledError):
                await doomed
        # No admission-control slots leaked by the cancellation.
        assert svc._pending == 0

    asyncio.run(run())


def test_unknown_engine_rejected_at_submit(rng):
    from repro.errors import EngineError

    async def run():
        async with SortService(devices=1) as svc:
            with pytest.raises(EngineError, match="unknown engine"):
                await svc.submit(_request(rng, 8), engine="no-such-engine")
        assert svc.stats.submitted == 0

    asyncio.run(run())


def test_map_empty_and_results_order():
    assert SortService(devices=1).map([]) == []


def test_all_planned_batch_plans_each_request_once(rng):
    from repro.planner import default_planner

    class Placement:
        """Observer recording which device executed each request."""

        def __init__(self):
            self.device = {}

        def on_execute(self, device, busy_ms, ticket):
            self.device[id(ticket.request)] = device

        def on_batch(self, done, schedule):
            pass

    requests = [_request(rng, 256 << (i % 4)) for i in range(8)]
    cache = default_planner(1).cache
    lookups = cache.hits + cache.misses
    svc = SortService(devices=4, coalesce_window_ms=50.0, max_batch=8)
    svc.observer = placement = Placement()
    results = svc.map(requests)
    # Routing plans each request once; placement reuses those plans.
    assert cache.hits + cache.misses - lookups == len(requests)
    assert svc.stats.batches == 1
    assert all(r.plan is not None for r in results)
    expected, _loads = lpt([r.plan.cost_ms for r in results], range(4))
    assert [placement.device[id(r)] for r in requests] == expected


def test_all_planned_batch_fills_the_whole_pool(rng):
    """One heavy and three light planned requests, sealed as one batch,
    run on four distinct devices: the service fills its fixed pool by
    LPT and never shrinks it to a planner-chosen cluster size."""

    class Placement:
        """Observer recording which device executed each request."""

        def __init__(self):
            self.device = {}

        def on_execute(self, device, busy_ms, ticket):
            self.device[id(ticket.request)] = device

        def on_batch(self, done, schedule):
            pass

    requests = [_request(rng, n) for n in (65536, 256, 256, 256)]
    svc = SortService(devices=4, coalesce_window_ms=10_000, max_batch=4)
    svc.observer = placement = Placement()
    results = svc.map(requests)
    assert svc.stats.batches == 1
    assert all(r.plan is not None for r in results)
    assert sorted(placement.device[id(r)] for r in requests) == [0, 1, 2, 3]
    for req, served in zip(requests, results):
        assert np.array_equal(served.values, repro.sort(req).values)


def test_one_executor_submission_per_device_share(rng):
    requests = [_request(rng, 256 << (i % 4)) for i in range(8)]

    class CountingExecutor(ThreadPoolExecutor):
        """The loop's default executor, counting thread-pool submissions."""

        submits = 0

        def submit(self, *args, **kwargs):
            self.submits += 1
            return super().submit(*args, **kwargs)

    class Devices:
        """Observer recording which device executed each request."""

        def __init__(self):
            self.device = {}

        def on_execute(self, device, busy_ms, ticket):
            self.device[id(ticket.request)] = device

        def on_batch(self, done, schedule):
            pass

    async def run():
        executor = CountingExecutor(max_workers=4)
        asyncio.get_running_loop().set_default_executor(executor)
        svc = SortService(devices=4, coalesce_window_ms=10_000, max_batch=8)
        svc.observer = devices = Devices()
        async with svc:
            results = await asyncio.gather(*(svc.submit(r) for r in requests))
        return svc, results, executor.submits, devices.device

    svc, results, submits, device = asyncio.run(asyncio.wait_for(run(), 60.0))
    assert svc.stats.batches == 1
    assert len(device) == len(requests)
    assert submits == len(set(device.values())) <= 4
    for request, result in zip(requests, results):
        assert result.values.tobytes() == repro.sort(request).values.tobytes()
