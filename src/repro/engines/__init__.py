"""The unified sorting-engine API: one interface over every sorter.

This package is the dispatch layer the rest of the repository (CLI,
benchmarks, examples) goes through:

* :mod:`repro.engines.base` -- the :class:`SortEngine` protocol,
  :class:`SortRequest` / :class:`SortResult` / :class:`SortTelemetry`, and
  the per-engine :class:`EngineCapabilities` flags;
* :mod:`repro.engines.cost` -- the :class:`CostModel` protocol engines
  expose so the planner can price a request without serving it;
* :mod:`repro.engines.registry` -- the pluggable backend registry
  (:func:`register` / :func:`get` / :func:`available`);
* :mod:`repro.engines.adapters` -- the thirteen concrete built-in
  backends (GPU-ABiSort variants, the multi-device sharded engine, the
  Section-2.2 baselines, the CPU sorts, and the out-of-core pipeline),
  registered on import;
* :mod:`repro.engines.auto` -- the ``auto`` front end (fourteenth
  backend, the default): the cost-model planner of :mod:`repro.planner`
  as an engine, turning every dispatch into **plan -> execute**.

Quick use::

    import numpy as np
    import repro

    req = repro.SortRequest(keys=np.random.default_rng(0).random(1000,
                                                                dtype=np.float32))
    res = repro.sort(req)                   # planned dispatch (engine="auto")
    res.engine, res.plan                    # who served it, and why
    res = repro.sort(req, engine="abisort")      # explicit dispatch
    res = repro.sort(req, engine="bitonic-network")  # CapabilityError: n=1000
    batch = repro.sort_batch([req] * 4, engine="abisort")
    print(batch.telemetry.summary())
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import CapabilityError, EngineError
from repro.engines.base import (
    CAPABILITY_FLAGS,
    BatchResult,
    EngineCapabilities,
    SortEngine,
    SortRequest,
    SortResult,
    SortTelemetry,
)
from repro.engines.cost import (
    CostEstimate,
    CostModel,
    RequestShape,
    measured_cost_ms,
    request_shape,
)
from repro.engines.registry import (
    DEFAULT_ENGINE,
    available,
    capabilities,
    get,
    register,
    unregister,
)
from repro.engines.adapters import register_builtin_engines
from repro.engines.auto import AutoEngine
from repro.engines.telemetry import (
    aggregate_telemetry,
    fill_schedule_telemetry,
    pipeline_tasks_for_results,
    result_stage_specs,
)

register_builtin_engines()
register("auto", AutoEngine)

__all__ = [
    "SortEngine",
    "SortRequest",
    "SortResult",
    "SortTelemetry",
    "BatchResult",
    "EngineCapabilities",
    "CAPABILITY_FLAGS",
    "CapabilityError",
    "EngineError",
    "DEFAULT_ENGINE",
    "CostModel",
    "CostEstimate",
    "RequestShape",
    "request_shape",
    "measured_cost_ms",
    "register",
    "unregister",
    "get",
    "available",
    "capabilities",
    "sort",
    "sort_batch",
]


def _as_request(request) -> SortRequest:
    """Accept a SortRequest or a bare array (VALUE_DTYPE or plain keys)."""
    if isinstance(request, SortRequest):
        return request
    if isinstance(request, np.ndarray):
        from repro.stream.stream import VALUE_DTYPE

        if request.dtype == VALUE_DTYPE:
            return SortRequest(values=request)
        return SortRequest(keys=request)
    raise EngineError(
        f"expected a SortRequest or a NumPy array, got {type(request).__name__}"
    )


def sort(request, engine: str | None = None, devices: int | None = None) -> SortResult:
    """Serve one sort request through the registry.

    ``request`` is a :class:`SortRequest` (or, for convenience, a bare
    array: ``VALUE_DTYPE`` arrays sort as values, anything else as plain
    keys).  ``engine`` names a registered backend; with no engine (or
    ``engine="auto"``) the request routes through the cost-model planner,
    which picks the cheapest capability-feasible backend and device count
    (the decision comes back as :attr:`SortResult.plan`).  Naming an
    engine takes the direct dispatch path -- bit-identical to what it
    always did.  ``devices`` overrides the request's device count for
    cluster-aware engines, e.g.
    ``repro.sort(values, engine="sharded-abisort", devices=4)``.
    """
    req = _as_request(request)
    if devices is not None:
        # Copy before overriding: the caller's request object must not come
        # back mutated (a reused request would silently keep the override).
        req = dataclasses.replace(req, devices=devices)
    return get(engine).sort(req)


def sort_batch(
    requests, engine: str | None = None, devices: int | str | None = None
) -> BatchResult:
    """Serve a sequence of requests on one engine, one after another.

    With the default ``engine="auto"`` each request is planned on its
    own, exactly as :func:`sort` would plan it.  Returns a
    :class:`BatchResult` with the per-request results plus one aggregate
    :class:`SortTelemetry` summed over the batch (``telemetry.requests``
    counts the batch size).

    With ``devices=N`` (N > 1) the batch takes the **cluster fast path**:
    independent requests are placed on N modeled devices by size-aware LPT
    (longest processing time first, so one huge request no longer
    serializes the batch), and the event-driven scheduler of
    :mod:`repro.cluster.scheduler` overlaps each request's upload, sort,
    and download across the per-device transfer links.
    ``devices="auto"`` asks the planner for the cluster size too: the
    smallest device count whose predicted LPT makespan is within tolerance
    of the best (see :meth:`repro.planner.Planner.plan_batch`).  The
    per-request results are identical to the sequential path; the
    aggregate telemetry's ``modeled_makespan_ms`` / ``pipeline_bubble_ms``
    / ``transfer_bytes`` describe the concurrent schedule, and the
    schedule itself is attached as :attr:`BatchResult.schedule`.
    """
    requests = [_as_request(r) for r in requests]
    if devices == "auto":
        if requests:
            from repro.planner.planner import default_planner

            devices = default_planner().plan_batch(requests).devices
        else:
            devices = None
    eng = get(engine)
    results = [eng.sort(r) for r in requests]
    total = aggregate_telemetry(results)
    if devices is None or devices <= 1 or not requests:
        return BatchResult(results=results, telemetry=total)
    from repro.cluster.device import make_devices
    from repro.cluster.scheduler import Scheduler

    # The device models (GPU + host/link) come from the first request: a
    # cluster is physical hardware, not a per-request property.
    cluster = make_devices(devices, gpu=requests[0].gpu, host=requests[0].host)
    link = cluster[0].link
    scheduler = Scheduler(cluster, overlap=True)
    _specs, weights = result_stage_specs(results, link)
    assignment = scheduler.assign_lpt(weights)
    schedule = scheduler.run(pipeline_tasks_for_results(results, assignment, link))
    fill_schedule_telemetry(total, schedule, devices=len(cluster))
    return BatchResult(results=results, telemetry=total, schedule=schedule)
