"""GPU-ABiSort reproduction: optimal parallel sorting on stream architectures.

A full reimplementation of

    Alexander Gress and Gabriel Zachmann,
    "GPU-ABiSort: Optimal Parallel Sorting on Stream Architectures",
    IPDPS 2006 (extended version: TU Clausthal IfI technical report
    IfI-06-11),

on a software-simulated stream machine.  See README.md for a tour and the
``docs/`` site for the layer map (docs/architecture.md), the service
guide (docs/service.md), the persistent store guide (docs/store.md),
and runnable recipes (docs/cookbook.md).

Quick start (the unified engine API)::

    import numpy as np
    import repro

    rng = np.random.default_rng(7)
    result = repro.sort(repro.SortRequest(keys=rng.random(10_000,
                                                          dtype=np.float32)))
    result.keys, result.ids         # sorted keys + payload permutation
    result.telemetry.summary()      # counted ops, bytes, modeled times
    result.engine, result.plan      # planner's pick + scored alternatives

    repro.plan(result.values)       # what would run, and why (no sorting)
    repro.engines.available()       # every registered backend
    repro.sort(repro.SortRequest(keys=rng.random(4096, dtype=np.float32)),
               engine="bitonic-network")

``repro.sort(..., engine="abisort")`` pins GPU-ABiSort; :func:`make_sorter`
builds a bare sorter for one :class:`ABiSortConfig` variant.
"""

from repro.errors import (
    CapabilityError,
    EngineError,
    KernelError,
    LayoutError,
    ModelError,
    ReproError,
    SortInputError,
    StoreError,
    StreamError,
    SubstreamError,
)
from repro.stream.stream import NODE_DTYPE, PQ_DTYPE, VALUE_DTYPE
from repro.core.values import make_values
from repro.core.api import ABiSortConfig, make_sorter
from repro.core.abisort import GPUABiSorter
from repro.core.optimized import OptimizedGPUABiSorter
from repro import cluster, engines, fleet, planner, service, store
from repro.engines import (
    BatchResult,
    EngineCapabilities,
    SortEngine,
    SortRequest,
    SortResult,
    SortTelemetry,
    sort,
    sort_batch,
)
from repro.fleet import FleetReport, Tenant, Trace
from repro.planner import BatchPlan, Planner, SortPlan
from repro.service import ServiceConfig, SortService
from repro.store import SortedStore, StoreConfig


def plan(request, *, max_devices: int = 4):
    """The planner's decision for ``request`` without executing it.

    Accepts the same request forms as :func:`repro.sort` (a
    :class:`SortRequest` or a bare array); returns the
    :class:`repro.planner.SortPlan` that ``repro.sort(request)`` would
    execute.  ``max_devices`` caps the cluster the plan may pick; the
    shared :func:`repro.planner.default_planner` for that cap (and its
    plan cache) answers.
    """
    from repro.engines import _as_request
    from repro.planner import default_planner

    return default_planner(max_devices).plan(_as_request(request))


__version__ = "1.6.0"

__all__ = [
    "ReproError",
    "StreamError",
    "SubstreamError",
    "KernelError",
    "LayoutError",
    "SortInputError",
    "EngineError",
    "CapabilityError",
    "ModelError",
    "StoreError",
    "VALUE_DTYPE",
    "NODE_DTYPE",
    "PQ_DTYPE",
    "make_values",
    "ABiSortConfig",
    "make_sorter",
    "GPUABiSorter",
    "OptimizedGPUABiSorter",
    "engines",
    "cluster",
    "fleet",
    "planner",
    "service",
    "store",
    "FleetReport",
    "Tenant",
    "Trace",
    "SortService",
    "ServiceConfig",
    "SortedStore",
    "StoreConfig",
    "SortEngine",
    "SortRequest",
    "SortResult",
    "SortTelemetry",
    "BatchResult",
    "EngineCapabilities",
    "Planner",
    "SortPlan",
    "BatchPlan",
    "sort",
    "sort_batch",
    "plan",
    "__version__",
]
