"""Fleet service times come from the one shared single-device planner.

``FleetScheduler`` prices every distinct job size once per replay through
``default_planner(1)``, the planner the service also routes with.  Its plan cache is invalidated by
the registry generation, so a newly registered engine re-prices new
schedulers at once, and a size planned anywhere in the process is a
cache hit everywhere else.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.values import reference_sort
from repro.engines import SortRequest, SortTelemetry
from repro.engines.base import EngineCapabilities, SortEngine
from repro.engines.cost import CostEstimate, CostModel
from repro.fleet import FleetScheduler, Tenant, Trace, TraceRequest
from repro.planner import default_planner
from repro.service import SortService
from repro.workloads.traces import scenario_trace

#: The plugin's flat price: far below any built-in engine at these sizes.
CHEAP_MS = 1e-4

SIZES = (256, 1024, 1600, 4096)


def _trace() -> Trace:
    tenant = Tenant("t")
    requests = tuple(
        TraceRequest(float(i), "t", n, seed=i) for i, n in enumerate(SIZES)
    )
    return Trace("shared-planner", 0, (tenant,), requests)


def _durations() -> list[float]:
    return [job.duration_ms for job in FleetScheduler(_trace()).jobs]


class _FlatCost(CostModel):
    def estimate(self, request, *, devices=None):
        return CostEstimate(modeled_cpu_ms=CHEAP_MS)


class _CheapSort(SortEngine):
    name = "fleet-cheap-plugin"
    capabilities = EngineCapabilities(any_length=True)
    cost_model = _FlatCost()

    def _run(self, values, request):
        return reference_sort(values), SortTelemetry(), None


class TestRegistryChanges:
    def test_new_schedulers_price_with_a_registered_engine(self):
        original = _durations()
        assert all(d > CHEAP_MS for d in original)
        repro.engines.register(_CheapSort.name, _CheapSort)
        try:
            assert _durations() == [CHEAP_MS] * len(SIZES)
        finally:
            repro.engines.unregister(_CheapSort.name)
        assert _durations() == original


class TestOnePlanCache:
    @pytest.mark.parametrize("scenario", [None, "diurnal"])
    def test_second_replay_adds_no_misses(self, scenario):
        # diurnal holds 382 distinct sizes: more than a 256-plan LRU keeps.
        trace = _trace() if scenario is None else scenario_trace(scenario)
        cache = default_planner(1).cache
        FleetScheduler(trace).run()
        misses, hits = cache.misses, cache.hits
        FleetScheduler(trace).run()
        assert cache.misses == misses
        assert cache.hits == hits + len({r.n for r in trace.requests if r.n > 1})

    @pytest.mark.parametrize("scenario", ["burst", "diurnal"])
    def test_replay_makes_one_lookup_per_distinct_size(self, scenario):
        trace = scenario_trace(scenario)
        sizes = {r.n for r in trace.requests}
        assert len(sizes) < len(trace.requests)  # sizes do repeat
        cache = default_planner(1).cache
        before = cache.hits + cache.misses
        FleetScheduler(trace).run()
        assert cache.hits + cache.misses == before + len(sizes)

    def test_service_plans_are_default_planner_hits(self, rng):
        n = 2112
        cache = default_planner(1).cache
        cache.clear()
        SortService(devices=1, coalesce_window_ms=0.0).map(
            [SortRequest(keys=rng.random(n, dtype=np.float32))]
        )
        assert cache.misses >= 1
        misses, hits = cache.misses, cache.hits
        default_planner(1).plan(SortRequest(keys=np.zeros(n, np.float32)))
        assert (cache.misses, cache.hits) == (misses, hits + 1)
