"""The ``auto`` engine: the planner as a registry backend.

``engine="auto"`` (the default since the planner layer landed) is itself a
registered engine, so every dispatch surface -- ``repro.sort``, the CLI's
``--engine`` flags, ``backends`` listings -- gets planned dispatch without
special cases.  Serving a request is the two-phase pipeline:

1. **plan**: :meth:`repro.planner.Planner.plan` scores every
   capability-feasible backend's cost model and picks the cheapest
   (engine, devices) pair -- cached per request shape;
2. **execute**: the chosen backend serves the request through the exact
   same path an explicit ``engine="<name>"`` call takes, so the output is
   bit-identical to naming the engine yourself.

The returned :class:`~repro.engines.base.SortResult` reports the backend
that actually ran as ``engine`` and carries the winning
:class:`~repro.planner.SortPlan` as ``plan``.
"""

from __future__ import annotations

import dataclasses

from repro.engines.base import (
    EngineCapabilities,
    SortEngine,
    SortRequest,
    SortResult,
)

__all__ = ["AutoEngine"]


class AutoEngine(SortEngine):
    """Plan -> execute dispatch behind the standard engine interface.

    Declares every capability flag: the planner only routes to backends
    that actually serve the request, so "what can auto do" is the union
    of the registry.  Chosen backends are instantiated once per name and
    reused, preserving the batch-mode warm-cache behaviour of running a
    single engine instance.
    """

    name = "auto"
    description = (
        "cost-model planner: scores every feasible backend and dispatches "
        "to the cheapest (see `plan`)"
    )
    capabilities = EngineCapabilities(
        any_length=True, key_value=True, out_of_core=True, stable=True
    )

    def __init__(self):
        self._engines: dict[str, SortEngine] = {}

    def sort(self, request: SortRequest) -> SortResult:
        from repro.engines.registry import get
        from repro.planner.planner import default_planner

        plan = default_planner().plan(request)
        if plan.devices is not None and request.devices != plan.devices:
            request = dataclasses.replace(request, devices=plan.devices)
        engine = self._engines.get(plan.engine)
        if engine is None:
            engine = self._engines[plan.engine] = get(plan.engine)
        result = engine.sort(request)
        result.plan = plan
        return result

    def _run(self, values, request):  # pragma: no cover - sort() overrides
        raise NotImplementedError("AutoEngine dispatches in sort()")
