"""Cost-model fidelity: predictions vs. measured modeled cost.

Every built-in cost model is checked against
:func:`repro.engines.measured_cost_ms` of a real run -- exactly the
comparison the planner-accuracy benchmark makes at scale.  Data-independent
models (the stream curves at calibration anchors, the sharded composition,
the closed-form CPU counts) must match to float precision; data-dependent
(quicksort) and approximated (external seeks) models get explicit
tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engines import SortRequest, get, measured_cost_ms
from repro.planner.calibration import calibrate_stream_engine
from repro.stream.gpu_model import AGP_SYSTEM, GEFORCE_6800_ULTRA


def _measure(request, engine, devices=None):
    return measured_cost_ms(
        repro.sort(request, engine=engine, devices=devices), request
    )


class TestStreamCurves:
    @pytest.mark.parametrize("engine", ("abisort", "bitonic-network"))
    def test_exact_at_anchor_sizes(self, engine, rng):
        request = SortRequest(keys=rng.random(1 << 10, np.float32))
        predicted = get(engine).cost_model.estimate(request).cost_ms
        assert predicted == pytest.approx(_measure(request, engine), rel=1e-9)

    @pytest.mark.parametrize("engine", ("abisort", "odd-even-merge"))
    def test_extrapolation_within_three_percent(self, engine, rng):
        # 2^14 is two octaves past the last calibration anchor (2^12).
        request = SortRequest(keys=rng.random(1 << 14, np.float32))
        predicted = get(engine).cost_model.estimate(request).cost_ms
        assert predicted == pytest.approx(_measure(request, engine), rel=0.03)

    def test_padding_priced_like_the_engine(self, rng):
        # A non-power-of-two request costs what its padded length costs.
        odd = SortRequest(keys=rng.random(700, np.float32))
        padded = SortRequest(keys=rng.random(1024, np.float32))
        model = get("abisort").cost_model
        assert model.estimate(odd).modeled_gpu_ms == pytest.approx(
            model.estimate(padded).modeled_gpu_ms
        )

    def test_curves_keyed_per_gpu(self, rng):
        pcie = SortRequest(keys=rng.random(1 << 9, np.float32))
        agp = SortRequest(
            keys=rng.random(1 << 9, np.float32),
            gpu=GEFORCE_6800_ULTRA,
            host=AGP_SYSTEM,
        )
        model = get("abisort").cost_model
        pcie_curve = model.curve(pcie)
        agp_curve = model.curve(agp)
        assert pcie_curve.gpu != agp_curve.gpu
        # Distinct hardware models calibrate to distinct curves (the 6800's
        # lower op overhead vs. the 7800's cheaper kernels trade places as
        # n grows, so no one ordering holds at every size).
        assert pcie_curve.predict_ms(1 << 9) != agp_curve.predict_ms(1 << 9)
        assert model.curve(pcie) is pcie_curve

    def test_reregistering_an_engine_evicts_its_curves(self, rng):
        from functools import partial

        from repro.engines.adapters import StreamEngine

        request = SortRequest(keys=rng.random(1 << 8, np.float32))
        engine = get("abisort")
        old = engine.cost_model.curve(request)
        other = get("bitonic-network").cost_model.curve(request)
        # Re-register an equal factory: the replacement must be re-probed,
        # not priced from the old implementation's measurements.
        factory = partial(
            StreamEngine, "abisort", engine.program, engine.description
        )
        repro.engines.register("abisort", factory, replace=True)
        recalibrated = get("abisort").cost_model.curve(request)
        assert recalibrated is not old
        assert recalibrated.predict_ms(1 << 8) == old.predict_ms(1 << 8) > 0.0
        # Other engines' curves survive.
        assert get("bitonic-network").cost_model.curve(request) is other

    def test_op_count_polynomial_is_exact(self, rng):
        request = SortRequest(keys=rng.random(4, np.float32))
        curve = calibrate_stream_engine("abisort", request)
        for exponent in (7, 13, 15):
            n = 1 << exponent
            counted = repro.sort(
                SortRequest(keys=rng.random(n, np.float32)),
                engine="abisort",
            ).telemetry.stream_ops
            assert curve.predict_ops(n) == counted


class TestComposedModels:
    @pytest.mark.parametrize("devices", (1, 2, 4))
    def test_sharded_matches_measured_makespan(self, devices, rng):
        # Shards land on power-of-two anchor sizes: the composition
        # (shard planner + curve + scheduler + closed-form merge) is exact.
        request = SortRequest(keys=rng.random(1 << 12, np.float32))
        predicted = get("sharded-abisort").cost_model.estimate(
            request, devices=devices
        )
        assert predicted.makespan_ms == pytest.approx(
            _measure(request, "sharded-abisort", devices=devices), rel=1e-9
        )

    def test_sharded_device_counts_respect_request(self, rng):
        model = get("sharded-abisort").cost_model
        free = SortRequest(keys=np.zeros(4, np.float32))
        assert model.device_counts(free, max_devices=4) == (1, 2, 3, 4)
        pinned = SortRequest(keys=np.zeros(4, np.float32), devices=3)
        assert model.device_counts(pinned, max_devices=4) == (3,)

    def test_external_within_ten_percent(self, rng):
        request = SortRequest(keys=rng.random(6000, np.float32))
        predicted = get("external").cost_model.estimate(request).cost_ms
        assert predicted == pytest.approx(
            _measure(request, "external"), rel=0.10
        )


class TestCPUModels:
    def test_std_sort_model_is_exact(self, rng):
        request = SortRequest(keys=rng.random(999, np.float32))
        predicted = get("cpu-std").cost_model.estimate(request).cost_ms
        assert predicted == pytest.approx(_measure(request, "cpu-std"))

    def test_transition_model_is_exact(self, rng):
        request = SortRequest(keys=rng.random(200, np.float32))
        predicted = get("odd-even-transition").cost_model.estimate(request).cost_ms
        assert predicted == pytest.approx(
            _measure(request, "odd-even-transition")
        )

    def test_quicksort_model_within_ten_percent(self, rng):
        request = SortRequest(keys=rng.random(4096, np.float32))
        predicted = get("cpu-quicksort").cost_model.estimate(request).cost_ms
        assert predicted == pytest.approx(
            _measure(request, "cpu-quicksort"), rel=0.10
        )

    def test_host_prices_the_cpu_models(self, rng):
        keys = rng.random(2048, np.float32)
        fast = get("cpu-std").cost_model.estimate(SortRequest(keys=keys))
        slow = get("cpu-std").cost_model.estimate(
            SortRequest(keys=keys, gpu=GEFORCE_6800_ULTRA, host=AGP_SYSTEM)
        )
        # The AGP host's slower cpu_op_ns must surface in the estimate.
        assert slow.cost_ms > fast.cost_ms


class TestCostEstimate:
    def test_makespan_overrides_serialized_sum(self):
        from repro.engines.cost import CostEstimate

        pipelined = CostEstimate(
            modeled_gpu_ms=4.0, modeled_transfer_ms=2.0, makespan_ms=4.5
        )
        serialized = CostEstimate(modeled_gpu_ms=4.0, modeled_transfer_ms=2.0)
        assert pipelined.cost_ms == 4.5
        assert serialized.cost_ms == 6.0

    def test_measured_cost_conventions(self, rng):
        keys = rng.random(256, np.float32)
        on_device = repro.sort(SortRequest(keys=keys), engine="abisort")
        host_side = repro.sort(SortRequest(keys=keys), engine="cpu-quicksort")
        request = SortRequest(keys=keys)
        # On-device runs pay the bus round trip on top of modeled GPU time.
        assert measured_cost_ms(on_device, request) > \
            on_device.telemetry.modeled_total_ms
        assert measured_cost_ms(host_side, request) == pytest.approx(
            host_side.telemetry.modeled_total_ms
        )
