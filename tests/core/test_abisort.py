"""End-to-end tests for the stream-level GPU-ABiSort
(repro.core.abisort / repro.core.optimized)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.abisort import GPUABiSorter
from repro.core.optimized import OptimizedGPUABiSorter
from repro.core.values import reference_sort
from repro.errors import SortInputError
from repro.workloads.generators import DISTRIBUTIONS, generate_keys
from repro.workloads.records import verify_sort_output

ALL_MODES = [
    ("sequential", True), ("sequential", False),
    ("overlapped", True), ("overlapped", False),
]


def sorted_ok(sorter, values) -> None:
    out = sorter.sort(values)
    verify_sort_output(values, out)
    assert np.array_equal(out, reference_sort(values))


class TestUnoptimizedSorter:
    @pytest.mark.parametrize("schedule,gpu", ALL_MODES)
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 512])
    def test_sorts_uniform(self, schedule, gpu, n, rng):
        values = repro.make_values(rng.random(n, dtype=np.float32))
        sorted_ok(GPUABiSorter(schedule=schedule, gpu_semantics=gpu), values)

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_sorts_all_distributions(self, dist):
        values = repro.make_values(generate_keys(dist, 256, seed=1))
        sorted_ok(GPUABiSorter(), values)

    def test_level_validation_passes(self, medium_values):
        GPUABiSorter(validate_levels=True).sort(medium_values)

    def test_rejects_non_power_of_two(self):
        values = repro.make_values(np.zeros(6, dtype=np.float32))
        with pytest.raises(SortInputError):
            GPUABiSorter().sort(values)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(SortInputError):
            GPUABiSorter().sort(np.zeros(8, dtype=np.float32))

    def test_rejects_duplicate_ids(self):
        # Packed by hand: make_values itself rejects repeated ids.
        values = np.zeros(4, dtype=repro.VALUE_DTYPE)
        values["id"] = [0, 1, 1, 2]
        with pytest.raises(SortInputError, match="unique"):
            GPUABiSorter().sort(values)

    def test_rejects_length_one(self):
        with pytest.raises(SortInputError):
            GPUABiSorter().sort(repro.make_values(np.zeros(1, dtype=np.float32)))

    def test_input_not_mutated(self, small_values):
        snapshot = small_values.copy()
        GPUABiSorter().sort(small_values)
        assert np.array_equal(small_values, snapshot)

    def test_schedules_agree(self, rng):
        values = repro.make_values(rng.random(256, dtype=np.float32))
        out_seq = GPUABiSorter(schedule="sequential").sort(values)
        out_ovl = GPUABiSorter(schedule="overlapped").sort(values)
        assert np.array_equal(out_seq, out_ovl)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(SortInputError):
            GPUABiSorter(schedule="fancy")


class TestOptimizedSorter:
    @pytest.mark.parametrize("schedule,gpu", ALL_MODES)
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 2048])
    def test_sorts_uniform(self, schedule, gpu, n, rng):
        values = repro.make_values(rng.random(n, dtype=np.float32))
        sorted_ok(
            OptimizedGPUABiSorter(schedule=schedule, gpu_semantics=gpu), values
        )

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_sorts_all_distributions(self, dist):
        values = repro.make_values(generate_keys(dist, 512, seed=2))
        sorted_ok(OptimizedGPUABiSorter(), values)

    def test_matches_unoptimized(self, rng):
        values = repro.make_values(rng.random(1024, dtype=np.float32))
        base = GPUABiSorter().sort(values)
        opt = OptimizedGPUABiSorter().sort(values)
        assert np.array_equal(base, opt)

    def test_level_validation_passes(self, medium_values):
        OptimizedGPUABiSorter(validate_levels=True).sort(medium_values)

    @given(
        keys=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=64, max_size=64,
        )
    )
    @settings(max_examples=25)
    def test_property_sorts_anything(self, keys):
        values = repro.make_values(np.array(keys, dtype=np.float32))
        out = OptimizedGPUABiSorter().sort(values)
        assert np.array_equal(out, reference_sort(values))

    def test_negative_zero_and_extremes(self):
        keys = np.array(
            [0.0, -0.0, np.inf, -np.inf, 1e-38, -1e38, 3.4e38, 1.0],
            dtype=np.float32,
        )
        values = repro.make_values(keys)
        out = OptimizedGPUABiSorter().sort(values)
        assert np.array_equal(out, reference_sort(values))


class TestStreamOpCounts:
    def test_sequential_matches_formula(self):
        """Brook-mode kernel launches per level: 1 extract + (j^2+j)/2
        phases; plus 1 init and 1 output copy per level."""
        n = 256
        log_n = 8
        sorter = GPUABiSorter(schedule="sequential", gpu_semantics=False)
        sorter.sort(repro.make_values(np.arange(n, dtype=np.float32)))
        ops = sorter.last_machine.ops
        phases = [op for op in ops if op.name in ("phase0", "phaseI")]
        expected = sum((j * j + j) // 2 for j in range(1, log_n + 1))
        assert len(phases) == expected

    def test_overlapped_steps_match_schedule(self):
        """Overlapped mode: one phase-0 launch per stage, one combined
        phase-i launch per step that has continuing stages -- at most 2
        kernel launches per step, 2j - 1 steps per level."""
        from repro.core.layout import overlapped_schedule

        n = 256
        log_n = 8
        sorter = GPUABiSorter(schedule="overlapped", gpu_semantics=False)
        sorter.sort(repro.make_values(np.arange(n, dtype=np.float32)))
        ops = sorter.last_machine.ops
        phase0 = sum(1 for op in ops if op.name == "phase0")
        phase_i = sum(1 for op in ops if op.name == "phaseI")
        assert phase0 == sum(j for j in range(1, log_n + 1))
        expected_phase_i = sum(
            sum(1 for step in overlapped_schedule(j) if any(i > 0 for _k, i in step))
            for j in range(1, log_n + 1)
        )
        assert phase_i == expected_phase_i

    def test_overlapped_far_fewer_ops_than_sequential(self):
        """The O(log^2 n) vs O(log^3 n) gap, visible already at n = 4096."""
        n = 4096
        values = repro.make_values(np.arange(n, dtype=np.float32))
        seq = GPUABiSorter(schedule="sequential", gpu_semantics=False)
        ovl = GPUABiSorter(schedule="overlapped", gpu_semantics=False)
        seq.sort(values)
        ovl.sort(values)
        assert (
            ovl.last_machine.counters().stream_ops
            < 0.7 * seq.last_machine.counters().stream_ops
        )

    def test_optimized_fewer_ops_than_base(self):
        n = 1024
        values = repro.make_values(np.arange(n, dtype=np.float32))
        base = GPUABiSorter(gpu_semantics=False)
        opt = OptimizedGPUABiSorter(gpu_semantics=False)
        base.sort(values)
        opt.sort(values)
        assert (
            opt.last_machine.counters().stream_ops
            < base.last_machine.counters().stream_ops
        )

    def test_gpu_mode_adds_copy_ops_only(self):
        """GPU semantics add copy-backs but the same kernel sequence."""
        values = repro.make_values(np.arange(128, dtype=np.float32))
        brook = GPUABiSorter(gpu_semantics=False)
        gpu = GPUABiSorter(gpu_semantics=True)
        brook.sort(values)
        gpu.sort(values)
        brook_kernels = [
            op.name for op in brook.last_machine.ops if op.kind == "kernel"
        ]
        gpu_kernels = [
            op.name for op in gpu.last_machine.ops if op.kind == "kernel"
        ]
        assert brook_kernels == gpu_kernels
        assert gpu.last_machine.counters().copy_ops > 0

    def test_stream_memory_is_two_node_streams(self):
        """Section 5.3's point: the sort runs in two n-pair node streams
        (plus pq streams); peak allocation stays linear with small factor."""
        n = 1024
        sorter = GPUABiSorter(gpu_semantics=True)
        sorter.sort(repro.make_values(np.arange(n, dtype=np.float32)))
        machine = sorter.last_machine
        from repro.stream.stream import NODE_DTYPE, PQ_DTYPE, VALUE_DTYPE

        expected = (
            2 * (2 * n) * NODE_DTYPE.itemsize  # nodes_in + nodes_out
            + 2 * (2 * n) * PQ_DTYPE.itemsize  # pq ping-pong
            + n * VALUE_DTYPE.itemsize  # source
        )
        assert machine.peak_alloc_bytes == expected


class TestPublicAPI:
    def test_abisort_function(self, medium_values):
        out = repro.sort(
            repro.SortRequest(values=medium_values), engine="abisort"
        ).values
        assert np.array_equal(out, reference_sort(medium_values))

    def test_sort_key_value(self, rng):
        keys = rng.random(64, dtype=np.float32)
        result = repro.sort(repro.SortRequest(keys=keys), engine="abisort")
        assert np.array_equal(result.keys, np.sort(keys))
        assert np.array_equal(keys[result.ids], result.keys)

    def test_sort_key_value_empty_returns_empty(self):
        # Uniform trivial-input semantics (repro.engines.base): empty input
        # is valid and returns empty output.
        result = repro.sort(
            repro.SortRequest(keys=np.array([], dtype=np.float32)),
            engine="abisort",
        )
        assert result.keys.shape == (0,) and result.ids.shape == (0,)
        assert result.keys.dtype == np.float32 and result.ids.dtype == np.uint32

    def test_config_selects_variant(self, small_values):
        cfg = repro.ABiSortConfig(optimized=False, schedule="sequential")
        sorter = repro.make_sorter(cfg)
        assert type(sorter) is GPUABiSorter
        cfg2 = repro.ABiSortConfig(optimized=True)
        assert isinstance(repro.make_sorter(cfg2), OptimizedGPUABiSorter)
