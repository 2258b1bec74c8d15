"""The ``auto`` engine: the planner as a registry backend.

``engine="auto"`` (the default since the planner layer landed) is itself a
registered engine, so every dispatch surface -- ``repro.sort``, the CLI's
``--engine`` flags, ``backends`` listings -- gets planned dispatch without
special cases.  Serving a request is the two-phase pipeline:

1. **plan**: :meth:`repro.planner.Planner.plan` scores every
   capability-feasible backend's cost model and picks the cheapest
   (engine, devices) pair -- cached per request shape;
2. **execute**: :func:`execute` -- the one place a routed request becomes
   an engine call, for ``auto``, the service and the fleet alike -- runs
   the plan on the registry's one instance of the chosen engine, the
   exact path an explicit ``engine="<name>"`` call takes, so the output
   is bit-identical to naming the engine yourself.

The returned :class:`~repro.engines.base.SortResult` reports the backend
that actually ran as ``engine`` and carries the winning
:class:`~repro.planner.SortPlan` as ``plan``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.engines.base import (
    EngineCapabilities,
    SortEngine,
    SortRequest,
    SortResult,
)
from repro.engines.registry import get

if TYPE_CHECKING:
    from repro.planner import SortPlan

__all__ = ["AutoEngine", "execute"]


def execute(
    name: str, request: SortRequest, plan: "SortPlan | None" = None
) -> SortResult:
    """Serve ``request`` on engine ``name``, running ``plan`` when given.

    A plan's device count overrides the request's, on a copy, and the
    plan rides back as ``result.plan``.
    """
    if plan is not None and plan.devices not in (None, request.devices):
        request = dataclasses.replace(request, devices=plan.devices)
    result = get(name).sort(request)
    if plan is not None:
        result.plan = plan
    return result


class AutoEngine(SortEngine):
    """Plan -> execute dispatch behind the standard engine interface.

    Declares every capability flag: the planner only routes to backends
    that actually serve the request, so "what can auto do" is the union
    of the registry.
    """

    name = "auto"
    description = (
        "cost-model planner: scores every feasible backend and dispatches "
        "to the cheapest (see `plan`)"
    )
    capabilities = EngineCapabilities(
        any_length=True, key_value=True, out_of_core=True, stable=True
    )

    def sort(self, request: SortRequest) -> SortResult:
        from repro.planner.planner import default_planner

        plan = default_planner().plan(request)
        return execute(plan.engine, request, plan)

    def _run(self, values, request):  # pragma: no cover - sort() overrides
        raise NotImplementedError("AutoEngine dispatches in sort()")
