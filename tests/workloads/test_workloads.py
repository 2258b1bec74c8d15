"""Tests for workload generators and record utilities (repro.workloads)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import SortInputError
from repro.exec.stream_tier import sort_on_stream
from repro.workloads.generators import DISTRIBUTIONS, generate_keys, paper_workload
from repro.workloads.records import (
    RecordTable,
    is_sorted_values,
    pad_to_power_of_two,
    verify_sort_output,
)
from repro.core.values import make_values, reference_sort


class TestGenerators:
    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_shape_and_dtype(self, dist):
        keys = generate_keys(dist, 128, seed=5)
        assert keys.shape == (128,)
        assert keys.dtype == np.float32

    def test_seeded_reproducibility(self):
        a = generate_keys("uniform", 64, seed=9)
        b = generate_keys("uniform", 64, seed=9)
        c = generate_keys("uniform", 64, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sorted_is_sorted(self):
        keys = generate_keys("sorted", 100, seed=0)
        assert (np.diff(keys) >= 0).all()

    def test_reverse_sorted(self):
        keys = generate_keys("reverse_sorted", 100, seed=0)
        assert (np.diff(keys) <= 0).all()

    def test_all_equal(self):
        assert len(np.unique(generate_keys("all_equal", 50, seed=0))) == 1

    def test_few_distinct(self):
        assert len(np.unique(generate_keys("few_distinct", 1000, seed=0))) <= 8

    def test_organ_pipe_is_bitonic(self):
        keys = generate_keys("organ_pipe", 64, seed=0)
        half = 32
        assert (np.diff(keys[:half]) >= 0).all()
        assert (np.diff(keys[half:]) <= 0).all()

    def test_unknown_distribution(self):
        with pytest.raises(SortInputError):
            generate_keys("zipf", 8)

    def test_negative_n(self):
        with pytest.raises(SortInputError):
            generate_keys("uniform", -1)

    def test_paper_workload_ids_are_positions(self):
        w = paper_workload(32, seed=1)
        assert list(w["id"]) == list(range(32))


class TestPadding:
    def test_pads_to_next_power(self):
        vals = make_values(np.ones(5, dtype=np.float32))
        padded, orig = pad_to_power_of_two(vals)
        assert padded.shape[0] == 8
        assert orig == 5
        assert np.isinf(padded["key"][5:]).all()

    def test_power_of_two_untouched(self):
        vals = make_values(np.ones(8, dtype=np.float32))
        padded, orig = pad_to_power_of_two(vals)
        assert padded.shape[0] == 8 and orig == 8

    def test_padding_ids_unique(self):
        vals = make_values(np.ones(3, dtype=np.float32))
        padded, _ = pad_to_power_of_two(vals)
        assert len(np.unique(padded["id"])) == padded.shape[0]

    def test_padding_ids_exceed_the_largest_id(self):
        """Ids past n: padding must neither collide with a real id nor
        sort before a real +inf row."""
        vals = make_values(
            np.array([np.inf, 1.0, np.inf], dtype=np.float32),
            np.array([10, 3, 0], dtype=np.uint32),
        )
        padded, orig = pad_to_power_of_two(vals)
        assert orig == 3 and padded["id"].tolist() == [10, 3, 0, 11]
        out = repro.make_sorter().sort(padded)[:orig]
        assert np.array_equal(out, reference_sort(vals))

    def test_padding_at_the_uint32_ceiling(self):
        """No larger ids exist: the padding takes unused small ids, which
        sort_on_stream strips by id."""
        ceiling = (1 << 32) - 1
        vals = make_values(
            np.array([np.inf, 0.5, np.inf, 0.25, -0.0], dtype=np.float32),
            np.array([ceiling, 1, ceiling - 1, 0, 4], dtype=np.uint32),
        )
        padded, orig = pad_to_power_of_two(vals)
        assert orig == 5 and padded.shape[0] == 8
        assert np.isinf(padded["key"][orig:]).all()
        assert padded["id"][orig:].tolist() == [2, 3, 5]
        assert len(np.unique(padded["id"])) == padded.shape[0]
        for trace in (False, True):
            out, _machine = sort_on_stream(repro.ABiSortConfig(), vals, trace=trace)
            assert np.array_equal(out, reference_sort(vals))

    def test_empty_rejected(self):
        with pytest.raises(SortInputError):
            pad_to_power_of_two(make_values(np.array([], dtype=np.float32)))

    def test_pad_then_sort_then_truncate(self, rng):
        """The documented non-power-of-two workflow end to end."""
        keys = rng.random(300, dtype=np.float32)
        vals = make_values(keys)
        padded, orig = pad_to_power_of_two(vals)
        out = repro.make_sorter().sort(padded)[:orig]
        assert np.array_equal(out, reference_sort(vals))

    @given(n=st.integers(1, 100))
    def test_padded_length_is_power_of_two(self, n):
        vals = make_values(np.zeros(n, dtype=np.float32))
        padded, orig = pad_to_power_of_two(vals)
        m = padded.shape[0]
        assert m & (m - 1) == 0 and m >= max(2, n) and orig == n


class TestVerification:
    def test_is_sorted(self, rng):
        vals = reference_sort(make_values(rng.random(32, dtype=np.float32)))
        assert is_sorted_values(vals)
        assert is_sorted_values(vals[::-1].copy(), descending=True)
        assert not is_sorted_values(vals[::-1].copy())

    def test_verify_accepts_correct(self, rng):
        vals = make_values(rng.random(64, dtype=np.float32))
        verify_sort_output(vals, reference_sort(vals))

    def test_verify_rejects_unsorted(self, rng):
        vals = make_values(rng.random(64, dtype=np.float32))
        with pytest.raises(SortInputError, match="not ascending"):
            verify_sort_output(vals, vals[::-1].copy())

    def test_verify_rejects_corrupted_multiset(self, rng):
        vals = make_values(rng.random(64, dtype=np.float32))
        out = reference_sort(vals)
        out["key"][0] = -1.0  # still sorted, but not a permutation
        with pytest.raises(SortInputError, match="permutation"):
            verify_sort_output(vals, out)

    def test_verify_rejects_wrong_length(self, rng):
        vals = make_values(rng.random(8, dtype=np.float32))
        with pytest.raises(SortInputError, match="length"):
            verify_sort_output(vals, vals[:4])


class TestRecordTable:
    def test_sort_via_pointers(self, rng):
        n = 64
        payload = np.array([f"record-{i}".encode() for i in range(n)])
        keys = rng.random(n, dtype=np.float32)
        table = RecordTable(keys, payload)
        sorted_pairs = repro.sort(
            repro.SortRequest(values=table.pairs()), engine="abisort"
        ).values
        sorted_payload = table.sorted_payload(sorted_pairs)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(sorted_payload, payload[order])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SortInputError):
            RecordTable(np.zeros(3), np.zeros((4, 2)))

    def test_pair_length_checked(self, rng):
        table = RecordTable(rng.random(8), np.zeros((8, 1)))
        with pytest.raises(SortInputError):
            table.sorted_payload(repro.make_values(np.zeros(4, dtype=np.float32)))
