"""The (key, id) input contract at its two entry points.

``make_values`` with generated ids (``arange``, the paper's Section 4
distinctness device) checks only the keys, since those ids are unique by
construction; supplied ids, and ``SortRequest(values=...)``, still go
through the full :func:`~repro.stream.stream.check_values`.  The packed
bytes are pinned by sha256, and the telemetry sum the fleet and the
service accumulate per request is checked field by field.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engines import SortRequest, SortTelemetry
from repro.errors import SortInputError
from repro.stream.stream import (
    MAX_GENERATED_IDS,
    VALUE_DTYPE,
    check_values,
    make_values,
)
from repro.workloads.rng import seeded_rng

#: sha256 of ``make_values(_keys(n, dtype))``; the float64 keys round to
#: the same float32 keys, so both dtypes share one digest per size.
DIGESTS = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "a9765c4805658a968e5abdccd437e25907681a1cff6375e363239c53b125fcd4",
    2: "dbd00b214eba1bd9ce5415d847bf8b4bc72bf0397b4ed26575cb95472c846ca9",
    640: "14527d50cf211e5e2063becea48dafc318e9a42a8e272b4088a376c5ef87d8d9",
}


def _keys(n: int, dtype: str) -> np.ndarray:
    """Seeded normal keys led by -0.0, +inf and -inf."""
    keys = seeded_rng(n).standard_normal(n).astype(dtype)
    specials = np.array([-0.0, np.inf, -np.inf], dtype)
    keys[: min(n, 3)] = specials[: min(n, 3)]
    return keys


def _nan_message() -> str:
    packed = np.zeros(2, dtype=VALUE_DTYPE)
    packed["key"][1] = np.nan
    packed["id"] = [0, 1]
    with pytest.raises(SortInputError) as info:
        check_values(packed)
    return str(info.value)


class TestGeneratedIds:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n", sorted(DIGESTS))
    def test_bytes_are_pinned(self, n, dtype):
        values = make_values(_keys(n, dtype))
        assert values.dtype == VALUE_DTYPE
        assert hashlib.sha256(values.tobytes()).hexdigest() == DIGESTS[n]
        np.testing.assert_array_equal(values["id"], np.arange(n))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_nan_keys_still_raise_the_contract_message(self, dtype):
        keys = _keys(640, dtype)
        keys[317] = np.nan
        with pytest.raises(SortInputError) as info:
            make_values(keys)
        assert str(info.value) == _nan_message()
        with pytest.raises(SortInputError, match="NaN sort keys"):
            SortRequest(keys=keys).to_values()

    def test_more_keys_than_distinct_ids_raise(self):
        # A zero-stride view has the length without the memory: the
        # guard must fire before anything of that length is allocated.
        keys = np.lib.stride_tricks.as_strided(
            np.zeros(1, np.float32), shape=(MAX_GENERATED_IDS + 1,), strides=(0,)
        )
        with pytest.raises(SortInputError, match="generated ids would repeat"):
            make_values(keys)


class TestSuppliedIds:
    def test_duplicate_ids_still_raise(self):
        with pytest.raises(SortInputError, match="ids must be unique"):
            make_values(np.zeros(3, np.float32), np.array([4, 7, 4]))
        with pytest.raises(SortInputError, match="ids must be unique"):
            SortRequest(
                keys=np.zeros(3, np.float32), ids=np.array([4, 7, 4])
            ).to_values()

    def test_values_requests_run_the_full_check(self):
        values = make_values(np.arange(4, dtype=np.float32))
        values["id"][2] = values["id"][0]
        with pytest.raises(SortInputError, match="ids must be unique"):
            SortRequest(values=values).to_values()
        values = make_values(np.arange(4, dtype=np.float32))
        values["key"][3] = np.nan
        with pytest.raises(SortInputError) as info:
            SortRequest(values=values).to_values()
        assert str(info.value) == _nan_message()

    def test_supplied_nan_keys_raise_the_same_message(self):
        with pytest.raises(SortInputError) as info:
            make_values(np.array([1.0, np.nan]), np.array([9, 3]))
        assert str(info.value) == _nan_message()

    @pytest.mark.parametrize("keys,ids", [([1, 2], [1]), ([1.0], [0, 1]),
                                          ([1.0, 2.0], [[0, 1]])])
    def test_ids_of_another_shape_raise_naming_both_fields(self, keys, ids):
        with pytest.raises(SortInputError, match="ids and keys must have the "
                                                 "same shape"):
            make_values(np.asarray(keys), ids)
        with pytest.raises(SortInputError, match="ids and keys"):
            SortRequest(keys=keys, ids=ids).to_values()

    @pytest.mark.parametrize("keys", [[[1.0, 2.0]], 5.0, np.zeros((2, 2))])
    def test_keys_that_are_not_1d_raise(self, keys):
        with pytest.raises(SortInputError, match="keys must be 1-D"):
            make_values(keys)
        with pytest.raises(SortInputError, match="keys must be 1-D"):
            make_values(keys, [0])


class TestCasts:
    """What the float32/uint32 casts would silently change is refused."""

    @pytest.mark.parametrize("ids", [[1.9, 0.2], [-1, 0], [0, 2**32], [1.0, 0.0],
                                     [True, False], [0, 2**64]])
    def test_ids_must_be_uint32_integers(self, ids):
        match = r"ids must be integers in \[0, 2\*\*32\)"
        with pytest.raises(SortInputError, match=match):
            make_values(np.zeros(2, np.float32), ids)

    @pytest.mark.parametrize("keys", [[1e300, 0.0], [0.0, -1e39], [10**40, 0],
                                      [10**400, 0]])
    def test_keys_beyond_float32_are_refused_without_a_warning(self, keys):
        # pytest.ini turns a RuntimeWarning from repro into an error.
        with pytest.raises(SortInputError, match="float32's range"):
            make_values(np.asarray(keys))

    def test_in_range_casts_are_kept(self):
        keys = [np.inf, -np.inf, 3.4028235e38, 2.5, 1]
        values = make_values(np.array(keys), np.array([4, 0, 2**32 - 1, 7, 3]))
        assert values["key"].tolist() == np.array(keys, np.float32).tolist()
        assert values["id"].tolist() == [4, 0, 2**32 - 1, 7, 3]
        assert make_values(np.zeros(0), np.zeros(0)).shape == (0,)

    def test_proven_dtypes_skip_the_checks(self, monkeypatch):
        from repro.stream import stream

        def unexpected(_array):
            raise AssertionError("checked a dtype that proves the contract")

        monkeypatch.setattr(stream, "_float32_keys", unexpected)
        monkeypatch.setattr(stream, "_uint32_ids", unexpected)
        make_values(np.ones(3, np.float32), np.arange(3, dtype=np.uint32))
        make_values(np.ones(3, np.float32))


_COUNT = st.integers(min_value=1, max_value=1 << 40)
_MS = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def _telemetry(draw) -> SortTelemetry:
    """A record with every field non-zero."""
    return SortTelemetry(**{
        f.name: draw(_MS if f.type in (float, "float") else _COUNT)
        for f in fields(SortTelemetry)
    })


class TestTelemetrySum:
    @given(_telemetry(), _telemetry())
    def test_add_is_a_field_by_field_sum_with_devices_as_max(self, a, b):
        expect = {
            f.name: (
                max(getattr(a, f.name), getattr(b, f.name))
                if f.name == "devices"
                else getattr(a, f.name) + getattr(b, f.name)
            )
            for f in fields(SortTelemetry)
        }
        assert all(expect[name] != 0 for name in expect)
        a.add(b)
        assert {f.name: getattr(a, f.name) for f in fields(a)} == expect
