"""Tour of the async sort service: submit, coalesce, backpressure, serve.

Run:  python examples/service_tour.py

Walks the service layer (``repro.service``, docs/service.md):

* the synchronous ``SortService.map`` for scripts;
* async ``submit`` with concurrent callers coalescing into one batch;
* admission control: the bounded queue rejecting with a retry-after hint;
* the NDJSON socket server behind ``python -m repro serve``;
* the lifetime stats report.
"""

from __future__ import annotations

import asyncio

import numpy as np

import repro
from repro.analysis.cluster_report import format_service_stats
from repro.errors import ServiceOverloadError
from repro.service import (
    ServiceConfig,
    SortService,
    request_sort,
    start_server,
)
from repro.workloads.rng import seeded_rng


def sync_map_demo() -> None:
    """The script-friendly face: map a list of requests, in order."""
    rng = seeded_rng(7806)
    requests = [
        repro.SortRequest(keys=rng.random(n, dtype=np.float32))
        for n in (4096, 1024, 2048, 512)
    ]
    svc = SortService(devices=2, coalesce_window_ms=50.0)
    results = svc.map(requests)
    print("== SortService.map ==")
    for res in results:
        t = res.telemetry
        print(
            f"  n={len(res):5d} by {res.engine:<12} "
            f"waited {t.queue_wait_ms:7.1f} ms, "
            f"batch makespan {t.service_makespan_ms:.3f} ms"
        )
    # Bit-identical to direct dispatch, always.
    direct = repro.sort(requests[0])
    assert np.array_equal(results[0].values, direct.values)
    print(f"  {svc.stats.summary()}")


def async_submit_demo() -> None:
    """Concurrent submitters whose requests coalesce into shared batches."""

    async def run() -> None:
        rng = seeded_rng(2006)
        requests = [
            repro.SortRequest(keys=rng.random(1024, dtype=np.float32))
            for _ in range(8)
        ]
        async with SortService(
            devices=4, coalesce_window_ms=25.0, max_batch=8
        ) as svc:
            results = await asyncio.gather(
                *(svc.submit(r) for r in requests)
            )
            print("== async submit ==")
            print(
                f"  {len(results)} concurrent requests -> "
                f"{svc.stats.batches} batch(es), largest "
                f"{svc.stats.largest_batch}, modeled speedup "
                f"{svc.stats.modeled_speedup:.2f}x over one-at-a-time"
            )

    asyncio.run(run())


def backpressure_demo() -> None:
    """Admission control: reject early with a retry hint, never queue forever."""

    async def run() -> None:
        rng = seeded_rng(404)
        req = repro.SortRequest(keys=rng.random(256, dtype=np.float32))
        config = ServiceConfig(
            devices=1,
            max_pending=2,
            coalesce_window_ms=5_000.0,
            max_batch=64,
        )
        async with SortService(config) as svc:
            admitted = [
                asyncio.create_task(svc.submit(req, engine="cpu-std"))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            print("== admission control ==")
            try:
                await svc.submit(req, engine="cpu-std")
            except ServiceOverloadError as err:
                print(
                    f"  third request rejected: retry after "
                    f"{err.retry_after_ms:.0f} ms "
                    f"({svc.stats.rejected} rejected so far)"
                )
            await svc.flush()
            await asyncio.gather(*admitted)
            print(f"  admitted work still completed: {svc.stats.completed}")

    asyncio.run(run())


def socket_demo() -> None:
    """The NDJSON wire: what `python -m repro serve` speaks, in-process."""

    async def run() -> None:
        async with SortService(devices=2, coalesce_window_ms=5.0) as svc:
            server = await start_server(svc)
            port = server.sockets[0].getsockname()[1]
            try:
                resp = await request_sort(
                    "127.0.0.1", port, [0.5, 0.1, 0.9, 0.3], engine="cpu-std"
                )
                print("== NDJSON socket ==")
                print(
                    f"  sorted over the wire by {resp['engine']}: "
                    f"{resp['keys']} (queue wait "
                    f"{resp['telemetry']['queue_wait_ms']:.1f} ms)"
                )
            finally:
                server.close()
                await server.wait_closed()
            print(format_service_stats(svc.stats))

    asyncio.run(run())


def main() -> None:
    sync_map_demo()
    async_submit_demo()
    backpressure_demo()
    socket_demo()


if __name__ == "__main__":
    main()
