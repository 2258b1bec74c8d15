"""Tests for streams and substreams (repro.stream.stream)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SortInputError, SubstreamError
from repro.stream.stream import (
    NODE_DTYPE,
    VALUE_DTYPE,
    Stream,
    Substream,
    make_nodes,
    make_values,
    values_greater,
)


def make_stream(n=16, dtype=np.int64, name="s") -> Stream:
    return Stream(name, np.arange(n, dtype=dtype))


class TestMakeValues:
    def test_default_ids_are_positions(self):
        vals = make_values(np.array([3.0, 1.0, 2.0], dtype=np.float32))
        assert vals.dtype == VALUE_DTYPE
        assert list(vals["id"]) == [0, 1, 2]

    def test_explicit_ids(self):
        vals = make_values(np.array([1.0, 2.0]), np.array([7, 9]))
        assert list(vals["id"]) == [7, 9]

    def test_rejects_2d_keys(self):
        with pytest.raises(SortInputError, match="keys must be 1-D"):
            make_values(np.zeros((2, 2)))

    def test_rejects_mismatched_ids(self):
        with pytest.raises(SortInputError, match="ids and keys"):
            make_values(np.zeros(3), np.zeros(2, dtype=np.uint32))

    def test_key_downcast_to_float32(self):
        vals = make_values(np.array([0.1], dtype=np.float64))
        assert vals["key"].dtype == np.float32

    def test_nan_keys_rejected(self):
        """NaN breaks the (key, id) total order the algorithm needs."""
        with pytest.raises(SortInputError, match="NaN"):
            make_values(np.array([1.0, np.nan], dtype=np.float32))

    def test_infinities_allowed(self):
        vals = make_values(np.array([np.inf, -np.inf], dtype=np.float32))
        assert np.isinf(vals["key"]).all()


class TestMakeNodes:
    def test_links_initialised_unused(self):
        nodes = make_nodes(4)
        assert nodes.dtype == NODE_DTYPE
        assert (nodes["left"] == -1).all()
        assert (nodes["right"] == -1).all()


class TestValuesGreater:
    def test_key_dominates(self):
        a = make_values(np.array([2.0], dtype=np.float32), np.array([0]))
        b = make_values(np.array([1.0], dtype=np.float32), np.array([9]))
        assert values_greater(a, b)[0]
        assert not values_greater(b, a)[0]

    def test_id_breaks_ties(self):
        a = make_values(np.array([1.0], dtype=np.float32), np.array([5]))
        b = make_values(np.array([1.0], dtype=np.float32), np.array([3]))
        assert values_greater(a, b)[0]
        assert not values_greater(b, a)[0]

    def test_total_order_never_equal_with_unique_ids(self):
        a = make_values(np.array([1.0, 1.0], dtype=np.float32), np.array([0, 1]))
        b = a[::-1].copy()
        gt = values_greater(a, b)
        lt = values_greater(b, a)
        assert (gt != lt).all()  # exactly one of >, < holds


class TestSubstream:
    def test_contiguous_roundtrip(self):
        s = make_stream()
        sub = s.sub(4, 8)
        assert len(sub) == 4
        assert list(sub.gather_view()) == [4, 5, 6, 7]

    def test_write_contiguous(self):
        s = make_stream()
        s.sub(0, 3).write(np.array([9, 8, 7], dtype=np.int64))
        assert list(s.array()[:4]) == [9, 8, 7, 3]

    def test_multi_block_order_is_block_order(self):
        s = make_stream()
        sub = s.multi([(8, 10), (0, 2)])
        assert list(sub.gather_view()) == [8, 9, 0, 1]

    def test_multi_block_write_in_block_order(self):
        s = make_stream()
        s.multi([(8, 10), (0, 2)]).write(np.array([1, 2, 3, 4], dtype=np.int64))
        assert list(s.array()[8:10]) == [1, 2]
        assert list(s.array()[0:2]) == [3, 4]

    def test_rejects_empty_blocks(self):
        s = make_stream()
        with pytest.raises(SubstreamError):
            Substream(s, [])

    def test_rejects_out_of_range(self):
        s = make_stream()
        with pytest.raises(SubstreamError):
            s.sub(10, 20)
        with pytest.raises(SubstreamError):
            s.sub(-1, 3)

    def test_rejects_inverted_range(self):
        s = make_stream()
        with pytest.raises(SubstreamError):
            s.sub(5, 5)

    def test_rejects_overlapping_blocks(self):
        s = make_stream()
        with pytest.raises(SubstreamError):
            s.multi([(0, 4), (3, 6)])

    def test_write_length_mismatch(self):
        s = make_stream()
        with pytest.raises(SubstreamError):
            s.sub(0, 4).write(np.zeros(3, dtype=np.int64))

    def test_overlaps_same_stream(self):
        s = make_stream()
        assert s.sub(0, 4).overlaps(s.sub(3, 5))
        assert not s.sub(0, 4).overlaps(s.sub(4, 8))

    def test_overlaps_different_streams(self):
        a, b = make_stream(name="a"), make_stream(name="b")
        assert not a.sub(0, 4).overlaps(b.sub(0, 4))

    def test_element_indices(self):
        s = make_stream()
        sub = s.multi([(2, 4), (8, 9)])
        assert list(sub.element_indices()) == [2, 3, 8]

    def test_write_field_on_nodes(self):
        s = Stream("n", make_nodes(4))
        sub = s.sub(0, 2)
        sub.write_field("key", np.array([1.5, 2.5], dtype=np.float32))
        assert s.array()["key"][0] == np.float32(1.5)
        assert s.array()["key"][2] == 0.0

    @given(
        start=st.integers(0, 12),
        length=st.integers(1, 4),
    )
    def test_write_then_read_roundtrip(self, start, length):
        s = make_stream(16)
        if start + length > 16:
            length = 16 - start
        if length == 0:
            return
        data = np.arange(100, 100 + length, dtype=np.int64)
        sub = s.sub(start, start + length)
        sub.write(data)
        assert np.array_equal(sub.gather_view(), data)
