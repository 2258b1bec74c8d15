"""Flood backpressure regression: ServiceStats snapshots under overload.

The fleet's flood scenario models a bully tenant saturating admission;
this suite pins the service-layer half of that story: a submission flood
past ``max_pending`` must be rejected with retry hints, the live counters
must record it, and :meth:`ServiceStats.snapshot` /
:attr:`SortService.pending` must let a harness assert that *mid-run*
without racing the pipeline.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServiceOverloadError
from repro.service import ServiceStats, SortService
from repro.workloads.rng import seeded_rng

#: Socket-free but still async: every await is wrapped so a wedged
#: service fails the test instead of hanging the suite.
TIMEOUT_S = 60.0


def _keys(rng, n=512):
    return rng.random(n, dtype="float32")


async def _flood(service, requests):
    """Submit all at once (no throttle) and split results/rejections."""
    outcomes = await asyncio.gather(
        *(service.submit(r) for r in requests), return_exceptions=True
    )
    rejected = [o for o in outcomes if isinstance(o, ServiceOverloadError)]
    errors = [
        o
        for o in outcomes
        if isinstance(o, BaseException)
        and not isinstance(o, ServiceOverloadError)
    ]
    assert not errors, errors
    return [o for o in outcomes if not isinstance(o, BaseException)], rejected


class TestFloodBackpressure:
    def test_flood_is_rejected_with_retry_hints(self):
        async def run():
            rng = seeded_rng(17)
            async with SortService(
                devices=2, max_pending=4, coalesce_window_ms=1.0
            ) as svc:
                done, rejected = await _flood(
                    svc, [_keys(rng) for _ in range(32)]
                )
                mid = svc.stats.snapshot()
            return done, rejected, mid, svc.stats

        done, rejected, mid, final = asyncio.run(
            asyncio.wait_for(run(), TIMEOUT_S)
        )
        assert rejected, "flood never tripped admission control"
        assert done, "backpressure must shed load, not deny all service"
        assert len(done) + len(rejected) == 32
        for err in rejected:
            assert err.retry_after_ms > 0
        assert final.rejected == len(rejected)
        assert final.completed == len(done)
        # The drained service reports the same counts the snapshot saw.
        assert mid.rejected == final.rejected
        assert mid.completed == final.completed

    def test_snapshot_is_frozen_mid_run(self):
        async def run():
            rng = seeded_rng(18)
            async with SortService(
                devices=1, max_pending=64, coalesce_window_ms=1.0
            ) as svc:
                first = await svc.submit(_keys(rng))
                snap = svc.stats.snapshot()
                await _flood(svc, [_keys(rng) for _ in range(8)])
                return first, snap, svc.stats.snapshot()

        first, snap, after = asyncio.run(asyncio.wait_for(run(), TIMEOUT_S))
        assert first.values is not None
        # The early snapshot kept its view while the live stats moved on.
        assert snap.completed == 1
        assert after.completed == 9
        assert snap.telemetry.requests == 1
        assert after.telemetry.requests == 9

    def test_snapshot_detaches_telemetry(self):
        stats = ServiceStats()
        snap = stats.snapshot()
        assert snap is not stats
        assert snap.telemetry is not stats.telemetry
        stats.telemetry.n += 1024
        stats.completed += 1
        assert snap.telemetry.n == 0
        assert snap.completed == 0

    def test_pending_tracks_admission_window(self):
        async def run():
            rng = seeded_rng(19)
            async with SortService(
                devices=1, max_pending=3, coalesce_window_ms=1.0
            ) as svc:
                assert svc.pending == 0
                tasks = [
                    asyncio.ensure_future(svc.submit(_keys(rng)))
                    for _ in range(3)
                ]
                await asyncio.sleep(0)
                observed = svc.pending
                with pytest.raises(ServiceOverloadError):
                    await svc.submit(_keys(rng))
                await asyncio.gather(*tasks)
                return observed, svc.pending

        observed, drained = asyncio.run(asyncio.wait_for(run(), TIMEOUT_S))
        assert observed == 3
        assert drained == 0
