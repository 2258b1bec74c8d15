"""Planner correctness: auto dispatch equivalence, caching, batch placement.

The load-bearing guarantees of the plan -> execute pipeline:

* ``engine="auto"`` (the default) returns **bit-identical** output to
  running the plan's chosen engine explicitly -- planning is a *schedule*
  decision, never an *answer* decision (the cluster layer's invariant,
  lifted to dispatch);
* plans are deterministic and cached per request shape, with LRU eviction
  and wholesale invalidation when the engine registry changes;
* batch placement is size-aware (LPT): one huge request no longer
  serializes a batch the way round-robin placement did.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.values import reference_sort
from repro.engines import SortRequest, SortTelemetry
from repro.engines.base import EngineCapabilities, SortEngine
from repro.errors import EngineError
from repro.planner import Planner, SortPlan, default_planner
from repro.stream.gpu_model import AGP_SYSTEM, GEFORCE_6800_ULTRA

#: A deliberate mix of trivial, tiny, power-of-two, and awkward lengths.
GRID_SIZES = (0, 1, 2, 3, 64, 100, 257, 1024, 1500, 4096)


class TestAutoDispatch:
    def test_default_engine_routes_through_planner(self, rng):
        result = repro.sort(SortRequest(keys=rng.random(128, np.float32)))
        assert result.plan is not None
        assert isinstance(result.plan, SortPlan)
        assert result.engine == result.plan.engine

    def test_explicit_engine_skips_planner(self, rng):
        result = repro.sort(
            SortRequest(keys=rng.random(128, np.float32)), engine="abisort"
        )
        assert result.plan is None
        assert result.engine == "abisort"

    @pytest.mark.parametrize("n", GRID_SIZES)
    @pytest.mark.parametrize("kind", ("random", "duplicate-key"))
    def test_auto_bit_identical_to_explicit_engine(self, n, kind, rng):
        if kind == "duplicate-key":
            keys = rng.integers(0, 4, n).astype(np.float32)
        else:
            keys = rng.random(n, dtype=np.float32)
        request = SortRequest(keys=keys)
        auto = repro.sort(request)
        explicit = repro.sort(
            request, engine=auto.plan.engine, devices=auto.plan.devices
        )
        assert auto.values.tobytes() == explicit.values.tobytes()
        assert np.array_equal(auto.values, reference_sort(request.to_values()))

    def test_auto_on_other_hardware(self, rng):
        request = SortRequest(
            keys=rng.random(300, np.float32),
            gpu=GEFORCE_6800_ULTRA,
            host=AGP_SYSTEM,
        )
        auto = repro.sort(request)
        explicit = repro.sort(
            request, engine=auto.plan.engine, devices=auto.plan.devices
        )
        assert auto.values.tobytes() == explicit.values.tobytes()

    def test_require_flags_steer_the_plan(self, rng):
        request = SortRequest(
            keys=rng.random(256, np.float32), require=("out_of_core",)
        )
        result = repro.sort(request)
        assert result.engine == "external"
        assert result.telemetry.disk_bytes > 0

    def test_trivial_inputs_do_not_calibrate(self, rng):
        # n <= 1 plans must not probe anything: every estimate is zero and
        # the lexically-first engine wins the tie deterministically.
        plan = Planner().plan(SortRequest(keys=np.zeros(1, np.float32)))
        assert plan.cost_ms == 0.0
        result = repro.sort(SortRequest(keys=np.zeros(1, np.float32)))
        assert len(result) == 1
        assert result.machine is None

    def test_devices_override_reaches_the_plan(self, rng):
        request = SortRequest(keys=rng.random(512, np.float32))
        result = repro.sort(request, engine="auto", devices=3)
        # The override pins cluster-aware candidates to 3 devices; the
        # winner either uses exactly 3 or is single-device.
        assert result.plan.devices in (None, 3)
        assert request.devices is None  # no mutation leak


class TestPlannerScoring:
    def test_plan_is_deterministic_and_cached(self, rng):
        planner = Planner()
        request = SortRequest(keys=rng.random(200, np.float32))
        first = planner.plan(request)
        second = planner.plan(SortRequest(keys=rng.random(200, np.float32)))
        assert second is first  # same shape -> cache hit, same object

    def test_winner_is_the_cheapest_candidate(self, rng):
        plan = Planner().plan(SortRequest(keys=rng.random(1024, np.float32)))
        assert plan.candidates
        costs = [c.cost_ms for c in plan.candidates]
        assert costs == sorted(costs)
        assert plan.cost_ms == pytest.approx(costs[0])
        assert plan.engine == plan.candidates[0].engine

    def test_power_of_two_engines_skipped_for_odd_lengths(self, rng):
        plan = Planner().plan(SortRequest(keys=rng.random(1000, np.float32)))
        assert all(
            repro.engines.capabilities(c.engine).any_length
            for c in plan.candidates
        )

    def test_abisort_under_a_new_name_is_priced_by_its_own_curve(self, rng):
        from repro.core.api import ABiSortConfig
        from repro.engines.adapters import StreamEngine

        config = ABiSortConfig(schedule="overlapped", optimized=True)
        repro.engines.register(
            "abisort-twin", lambda: StreamEngine("abisort-twin", config, "")
        )
        try:
            request = SortRequest(keys=rng.random(1000, np.float32))
            plan = Planner().plan(request)
            costs = {c.engine: c.cost_ms for c in plan.candidates}
            assert costs["abisort-twin"] == costs["abisort"]
            twin = repro.engines.get("abisort-twin").cost_model.curve(request)
            assert twin.engine == "abisort-twin"
            assert twin is not repro.engines.get("abisort").cost_model.curve(
                request
            )
        finally:
            repro.engines.unregister("abisort-twin")

    def test_engine_without_a_cost_model_is_dispatch_only(self, rng):
        class Unpriced(SortEngine):
            name = "unpriced-dummy"
            capabilities = EngineCapabilities(any_length=True)

            def _run(self, values, request):
                return reference_sort(values), SortTelemetry(), None

        repro.engines.register("unpriced-dummy", Unpriced)
        try:
            assert repro.engines.get("unpriced-dummy").cost_model is None
            request = SortRequest(keys=rng.random(300, np.float32))
            plan = Planner().plan(request)
            assert "unpriced-dummy" not in {c.engine for c in plan.candidates}
            result = repro.sort(request, engine="unpriced-dummy")
            assert result.engine == "unpriced-dummy"
            assert np.array_equal(
                result.values, reference_sort(request.to_values())
            )
        finally:
            repro.engines.unregister("unpriced-dummy")

    def test_max_devices_bounds_enumeration(self, rng):
        plan = Planner(max_devices=2).plan(
            SortRequest(keys=rng.random(2048, np.float32))
        )
        assert all((c.devices or 1) <= 2 for c in plan.candidates)
        # And the limit widens the enumeration too -- including past the
        # default planner's cap of 4.
        wide = Planner(max_devices=6).plan(
            SortRequest(keys=rng.random(2048, np.float32))
        )
        assert max(c.devices or 1 for c in wide.candidates) == 6

    def test_explain_names_the_winner(self, rng):
        text = Planner().plan(
            SortRequest(keys=rng.random(512, np.float32))
        ).explain()
        assert "plan for n=512" in text
        assert "*" in text and "predicted" in text

    def test_top_level_plan_helper(self, rng):
        keys = rng.random(640, np.float32)
        plan = repro.plan(keys)
        assert isinstance(plan, SortPlan)
        assert plan.shape.n == 640
        assert repro.plan(SortRequest(keys=keys), max_devices=2) is not plan

    def test_one_shared_planner_per_device_cap(self, rng):
        assert default_planner() is default_planner(4)
        assert default_planner(1) is default_planner(1)
        assert default_planner(1) is not default_planner(2)
        assert default_planner(2).max_devices == 2
        with pytest.raises(EngineError):
            default_planner(0)
        keys = rng.random(704, np.float32)
        plan = repro.plan(keys, max_devices=2)
        assert default_planner(2).plan(SortRequest(keys=keys)) is plan
        assert repro.plan(keys) is default_planner().plan(SortRequest(keys=keys))


class TestPlanCache:
    def test_hits_misses_and_capacity(self, rng):
        planner = Planner(cache_size=2)
        reqs = [
            SortRequest(keys=rng.random(n, np.float32)) for n in (64, 128, 192)
        ]
        planner.plan(reqs[0])
        planner.plan(reqs[0])
        assert planner.cache.hits == 1 and planner.cache.misses == 1
        planner.plan(reqs[1])
        planner.plan(reqs[2])  # evicts the n=64 plan (capacity 2)
        assert len(planner.cache) == 2
        planner.plan(reqs[0])
        assert planner.cache.misses == 4  # 64, 128, 192, then 64 again

    def test_shape_key_distinguishes_hardware_and_form(self, rng):
        planner = Planner()
        keys = rng.random(96, np.float32)
        planner.plan(SortRequest(keys=keys))
        planner.plan(SortRequest(keys=keys, gpu=GEFORCE_6800_ULTRA,
                                 host=AGP_SYSTEM))
        planner.plan(SortRequest(keys=keys,
                                 ids=np.arange(96, dtype=np.uint32)))
        assert len(planner.cache) == 3
        assert planner.cache.hits == 0

    def test_registry_change_invalidates(self, rng):
        class Dummy(SortEngine):
            name = "cache-test-dummy"
            capabilities = EngineCapabilities(any_length=True)

            def _run(self, values, request):
                return reference_sort(values), SortTelemetry(), None

        planner = Planner()
        request = SortRequest(keys=rng.random(80, np.float32))
        planner.plan(request)
        assert len(planner.cache) == 1
        repro.engines.register("cache-test-dummy", Dummy)
        try:
            planner.plan(request)  # generation changed: re-planned
            assert planner.cache.hits == 0
            assert planner.cache.misses == 2
        finally:
            repro.engines.unregister("cache-test-dummy")
        planner.plan(request)  # unregister invalidates again
        assert planner.cache.misses == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(EngineError):
            Planner(cache_size=0)
        with pytest.raises(EngineError):
            Planner(max_devices=0)


class TestBatchPlanning:
    def test_lpt_isolates_the_huge_request(self, rng):
        requests = [SortRequest(keys=rng.random(4096, np.float32))] + [
            SortRequest(keys=rng.random(64, np.float32)) for _ in range(5)
        ]
        batch = default_planner().plan_batch(requests, max_devices=2)
        assert batch.devices == 2
        assert len(batch.assignment) == 6
        huge_device = batch.assignment[0]
        # Every small request lands on the other device: the huge one no
        # longer serializes the batch behind it.
        assert all(d != huge_device for d in batch.assignment[1:])

    def test_equal_requests_spread_evenly(self, rng):
        requests = [
            SortRequest(keys=rng.random(256, np.float32)) for _ in range(8)
        ]
        batch = default_planner().plan_batch(requests, max_devices=4)
        counts: dict[int, int] = {}
        for device in batch.assignment:
            counts[device] = counts.get(device, 0) + 1
        assert all(count == 8 // batch.devices for count in counts.values())

    def test_empty_batch_rejected(self):
        with pytest.raises(EngineError):
            default_planner().plan_batch([])

    def test_sort_batch_auto_devices(self, rng):
        requests = [
            SortRequest(keys=rng.random(300, np.float32)) for _ in range(4)
        ]
        auto = repro.sort_batch(requests, engine="abisort", devices="auto")
        sequential = repro.sort_batch(requests, engine="abisort")
        for a, b in zip(auto.results, sequential.results):
            assert a.values.tobytes() == b.values.tobytes()
        assert auto.schedule is not None
        assert auto.telemetry.devices >= 2
