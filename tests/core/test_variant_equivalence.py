"""Deep equivalence of the program variants.

The Appendix-A sequential program, the Section-5.4 overlapped program, and
the GPU/Brook semantics modes must be *semantically identical*: not just
the same final answer, but the same per-level tree states -- the overlapped
schedule is a reordering of independent operations, and GPU mode only adds
copies.  These tests pin that down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.abisort import GPUABiSorter
from repro.core.optimized import OptimizedGPUABiSorter
from repro.workloads.generators import DISTRIBUTIONS, generate_keys, paper_workload
import repro


class _LevelCapture(GPUABiSorter):
    """Record the tree half after every recursion level."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.levels: list[np.ndarray] = []

    def _level_output_copy(self, state, j):
        super()._level_output_copy(state, j)
        nodes = state.nodes_in.array()
        snap = np.empty(state.n, dtype=repro.VALUE_DTYPE)
        snap["key"] = nodes["key"][state.n :]
        snap["id"] = nodes["id"][state.n :]
        self.levels.append(snap)


class TestScheduleEquivalence:
    def test_identical_level_states(self):
        values = paper_workload(1 << 9, seed=9)
        runs = {}
        for schedule in ("sequential", "overlapped"):
            for gpu in (True, False):
                sorter = _LevelCapture(schedule=schedule, gpu_semantics=gpu)
                sorter.sort(values)
                runs[(schedule, gpu)] = sorter.levels
        reference = runs[("sequential", False)]
        assert len(reference) == 9
        for key, levels in runs.items():
            assert len(levels) == len(reference), key
            for j, (a, b) in enumerate(zip(levels, reference), start=1):
                assert np.array_equal(a, b), (key, j)

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_optimized_equals_base_everywhere(self, dist):
        values = repro.make_values(generate_keys(dist, 256, seed=4))
        base = GPUABiSorter().sort(values)
        opt = OptimizedGPUABiSorter().sort(values)
        assert np.array_equal(base, opt)

    def test_float_edge_cases_all_variants(self):
        keys = np.array(
            [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 3.4e38, -3.4e38,
             1.0, -1.0, 1e-38, -1e-38, 2.0, 0.5, -0.5, -2.0],
            dtype=np.float32,
        )
        values = repro.make_values(keys)
        from repro.core.values import reference_sort

        expected = reference_sort(values)
        for schedule in ("sequential", "overlapped"):
            for optimized in (True, False):
                cfg = repro.ABiSortConfig(schedule=schedule, optimized=optimized)
                out = repro.make_sorter(cfg).sort(values)
                assert np.array_equal(out, expected), (
                    schedule, optimized,
                )
