"""Tests for the value helpers (repro.core.values)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.values import (
    as_key_id,
    check_values,
    ids_of,
    keys_of,
    make_values,
    reference_sort,
    total_order_argsort,
    values_less,
)
from repro.errors import SortInputError
from repro.stream.stream import values_greater


class TestAccessors:
    def test_as_key_id_views(self):
        vals = make_values(np.array([1.0, 2.0], dtype=np.float32))
        keys, ids = as_key_id(vals)
        keys[0] = 9.0  # views, not copies
        assert vals["key"][0] == np.float32(9.0)
        assert keys_of(vals)[0] == np.float32(9.0)
        assert list(ids_of(vals)) == [0, 1]

    def test_as_key_id_rejects_wrong_dtype(self):
        with pytest.raises(SortInputError):
            as_key_id(np.zeros(3))


class TestTotalOrder:
    def test_argsort_breaks_ties_by_id(self):
        vals = make_values(
            np.array([1.0, 1.0, 0.5], dtype=np.float32), np.array([7, 3, 9])
        )
        order = total_order_argsort(vals)
        assert list(order) == [2, 1, 0]

    def test_reference_sort_sorted(self, rng):
        vals = make_values(rng.random(100, dtype=np.float32))
        out = reference_sort(vals)
        assert (np.diff(out["key"]) >= 0).all()

    @given(
        keys=st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=32),
            min_size=2, max_size=32,
        )
    )
    def test_less_and_greater_are_strict_duals(self, keys):
        vals = make_values(np.array(keys, dtype=np.float32))
        a, b = vals[:-1], vals[1:]
        lt = values_less(a, b)
        gt = values_greater(a, b)
        # With unique ids, exactly one of <, > holds for each pair.
        assert (lt != gt).all()

    def test_check_values(self):
        """The input contract: VALUE_DTYPE, no NaN key, unique ids."""
        ok = make_values(np.zeros(3, dtype=np.float32))
        assert check_values(ok) is ok
        bad = ok.copy()
        bad["id"] = [1, 2, 1]
        with pytest.raises(SortInputError, match="unique"):
            check_values(bad)
        with pytest.raises(SortInputError, match="unique"):
            make_values(np.zeros(3, dtype=np.float32), np.array([1, 2, 1]))
        nan = ok.copy()
        nan["key"][1] = np.nan
        with pytest.raises(SortInputError, match="NaN"):
            check_values(nan)
        with pytest.raises(SortInputError, match="VALUE_DTYPE"):
            check_values(np.zeros(3))
        assert len(check_values(np.empty(0, dtype=ok.dtype))) == 0


@pytest.mark.slow
class TestLargeN:
    def test_sort_2_to_16(self):
        """End-to-end smoke at 2^16 (a Table-2/3 size) in both variants."""
        from repro.workloads.generators import paper_workload
        from repro.workloads.records import verify_sort_output

        values = paper_workload(1 << 16, seed=6)
        out_opt = repro.make_sorter().sort(values)
        verify_sort_output(values, out_opt)
        out_base = repro.make_sorter(repro.ABiSortConfig(optimized=False)).sort(
            values
        )
        assert np.array_equal(out_opt, out_base)
