"""Tests for the instrumented CPU quicksort (repro.baselines.cpu_sort)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.cpu_sort import (
    SIMD_SORT_MIN,
    CPUSortCounters,
    quicksort,
    std_sort,
)
from repro.core.values import make_values, reference_sort, total_order_argsort
from repro.errors import SortInputError
from repro.workloads.generators import DISTRIBUTIONS, generate_keys


class TestCorrectness:
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 100, 1000])
    def test_sorts_any_length(self, n, rng):
        vals = make_values(rng.random(n, dtype=np.float32))
        assert np.array_equal(quicksort(vals), reference_sort(vals))

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_sorts_all_distributions(self, dist):
        vals = make_values(generate_keys(dist, 500, seed=3))
        assert np.array_equal(quicksort(vals), reference_sort(vals))

    def test_std_sort_agrees(self, rng):
        vals = make_values(rng.random(333, dtype=np.float32))
        assert np.array_equal(std_sort(vals), quicksort(vals))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(SortInputError):
            quicksort(np.zeros(4))

    def test_input_not_mutated(self, small_values):
        snapshot = small_values.copy()
        quicksort(small_values)
        assert np.array_equal(small_values, snapshot)

    @given(
        keys=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=0, max_size=80,
        )
    )
    @settings(max_examples=40)
    def test_property(self, keys):
        vals = make_values(np.array(keys, dtype=np.float32))
        assert np.array_equal(quicksort(vals), reference_sort(vals))


#: Few distinct keys, so every key repeats many times; both zeros and
#: both infinities are in, so the id tie-break decides among them.
HARD_KEYS = np.array(
    [-np.inf, -2.5, -1e-45, -0.0, 0.0, 1e-45, 2.5, np.inf], dtype=np.float32
)


def _hard_values(n: int, seed: int) -> np.ndarray:
    """``n`` pairs of duplicated hard keys under shuffled unique ids."""
    rng = np.random.default_rng(seed)
    keys = HARD_KEYS[rng.integers(0, HARD_KEYS.size, n)]
    ids = rng.permutation(np.arange(n, dtype=np.uint32) * 7 + 3)
    return make_values(keys, ids)


class TestStdSortIdentity:
    """``cpu-std`` argsorts composites from 512 pairs; the bytes must not
    change: they equal the lexsort reference on every side of the cutoff."""

    @pytest.mark.parametrize("n", [511, 512, 513, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_identical_to_lexsort(self, n, seed):
        vals = _hard_values(n, seed)
        expected = vals[total_order_argsort(vals)].tobytes()
        assert std_sort(vals).tobytes() == expected
        result = repro.sort(repro.SortRequest(values=vals), engine="cpu-std")
        assert result.values.tobytes() == expected

    @given(
        n=st.sampled_from([511, 512, 513, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_property(self, n, seed):
        vals = _hard_values(n, seed)
        assert (
            std_sort(vals).tobytes() == vals[total_order_argsort(vals)].tobytes()
        )

    def test_shared_composite_falls_back_to_lexsort(self):
        # Out of the request contract (a repeated id), but std_sort itself
        # must still match lexsort: (-0.0, 5) and (+0.0, 5) share a
        # composite, so the SIMD order is not forced.
        vals = _hard_values(SIMD_SORT_MIN, 4)
        vals["key"][:2] = (-0.0, 0.0)
        vals["id"][:2] = 5
        assert (
            std_sort(vals).tobytes() == vals[total_order_argsort(vals)].tobytes()
        )


class TestCounters:
    def test_counts_scale_as_n_log_n(self, rng):
        per_nlogn = []
        for n in (1 << 10, 1 << 12, 1 << 14):
            c = CPUSortCounters()
            quicksort(make_values(rng.random(n, dtype=np.float32)), c)
            per_nlogn.append(c.total_ops / (n * math.log2(n)))
        # The normalised cost is roughly flat for a well-behaved quicksort.
        assert max(per_nlogn) / min(per_nlogn) < 1.3

    def test_counts_are_data_dependent(self):
        """Unlike GPU-ABiSort, quicksort's work varies with the input --
        the reason Tables 2-3 report CPU *ranges*."""
        n = 1 << 12
        counts = []
        for dist in ("uniform", "sorted", "organ_pipe", "few_distinct"):
            c = CPUSortCounters()
            quicksort(make_values(generate_keys(dist, n, seed=0)), c)
            counts.append(c.total_ops)
        assert len(set(counts)) > 1

    def test_counters_optional(self, small_values):
        assert np.array_equal(quicksort(small_values), reference_sort(small_values))

    def test_partition_and_insertion_counts_populate(self, medium_values):
        c = CPUSortCounters()
        quicksort(medium_values, c)
        assert c.partitions > 0
        assert c.insertion_segments > 0
        assert c.comparisons > 0
        assert c.total_ops == c.comparisons + c.moves
