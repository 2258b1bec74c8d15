"""Hypothesis properties of the word kernels: ``strict_sort`` and the pair movers.

:func:`~repro.exec.vectorized.strict_sort` sorts the ``uint64`` (key, id)
composites themselves and decodes the sorted words back into pairs, so
every byte of its output is rebuilt rather than gathered.  These
properties pin that decode:

* the output is byte-identical to ``values[total_order_argsort(values)]``
  (``np.lexsort``) over the hard keys (``-0.0``/``+0.0``, ``+-inf``, the
  smallest subnormals), key ties broken by shuffled unique ids, and the
  sizes around the ``cpu-std`` cutoff and at 2^16 (the sharded merge's
  size), one power of two and just past it;
* it returns ``None`` exactly when two records share a composite
  (``(-0.0, i)`` and ``(+0.0, i)`` included);
* :func:`~repro.exec.vectorized.composite_keys`, which writes the two
  ``uint32`` halves of each word, equals the shift/or formula
  ``(flipped key bits << 32) | id`` written out in full;
* :func:`~repro.stream.stream.copy_pairs` and
  :func:`~repro.stream.stream.concat_pairs` are byte-identical to
  ``.copy()`` and ``np.concatenate`` on empty, single, contiguous and
  reversed-stride inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import concat_pairs, copy_pairs, total_order_argsort
from repro.exec.vectorized import composite_keys, strict_sort
from repro.stream.stream import VALUE_DTYPE

HARD_KEYS = np.array([0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45], dtype=np.float32)
SIZES = [0, 1, 2, 511, 512, 513, 4096, 65536, 65539]
ID_MAX = 2**32 - 1


def _pack(keys, ids) -> np.ndarray:
    out = np.empty(len(keys), dtype=VALUE_DTYPE)
    out["key"] = np.asarray(keys, dtype=np.float32)
    out["id"] = np.asarray(ids, dtype=np.uint32)
    return out


def _reference(values: np.ndarray) -> bytes:
    return values[total_order_argsort(values)].tobytes()


@st.composite
def sized_records(draw):
    """``n`` records from :data:`SIZES`: hard keys, tied small integers and
    arbitrary non-NaN float32 bit patterns, with shuffled unique ids."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hard, tied = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    keys = rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32)
    keys[np.isnan(keys)] = np.float32(0.5)
    share = rng.random(n)
    keys[share < tied] = rng.integers(-3, 4, n).astype(np.float32)[share < tied]
    keys[share < hard] = rng.choice(HARD_KEYS, n)[share < hard]
    ids = rng.permutation(n) + draw(st.sampled_from([0, ID_MAX + 1 - n]))
    return _pack(keys, ids)


@settings(max_examples=150)
@given(sized_records())
def test_strict_sort_is_the_lexsort_output(values):
    ranked = strict_sort(values)
    assert ranked is not None
    assert ranked.dtype == VALUE_DTYPE
    assert ranked.tobytes() == _reference(values)


def _shift_or_composite(values: np.ndarray) -> np.ndarray:
    """The composite as a shift/or formula: flipped key bits high, id low."""
    bits = values["key"].astype(np.float32).view(np.uint32).astype(np.uint64)
    bits[bits == 0x80000000] = 0  # -0.0 folds into +0.0
    negative = bits >= 0x80000000
    flipped = np.where(negative, bits ^ 0xFFFFFFFF, bits | 0x80000000)
    return (flipped << np.uint64(32)) | values["id"].astype(np.uint64)


@settings(max_examples=60)
@given(sized_records())
def test_composite_keys_is_the_shift_or_formula(values):
    composite = composite_keys(values)
    assert composite.dtype == np.uint64
    assert composite.flags.c_contiguous
    assert np.array_equal(composite, _shift_or_composite(values))


@given(
    st.lists(
        st.tuples(st.floats(width=32, allow_nan=False), st.integers(0, ID_MAX)),
        max_size=300,
        unique_by=lambda record: record[1],
    )
)
def test_strict_sort_matches_lexsort_on_arbitrary_floats(records):
    values = _pack([k for k, _ in records], [i for _, i in records])
    assert strict_sort(values).tobytes() == _reference(values)


@given(
    st.lists(
        st.tuples(st.sampled_from([*HARD_KEYS.tolist(), 0.5, -2.0]), st.integers(0, 6)),
        max_size=40,
    )
)
def test_strict_sort_is_none_exactly_on_a_shared_composite(records):
    values = _pack([k for k, _ in records], [i for _, i in records])
    # float(-0.0) + 0.0 == +0.0: the reference compares the zeros equal.
    shared = len({(float(np.float32(k)) + 0.0, i) for k, i in records}) < len(records)
    ranked = strict_sort(values)
    assert (ranked is None) == shared
    if ranked is not None:
        assert ranked.tobytes() == _reference(values)


@pytest.mark.parametrize("n", [512, 4096, 65536])
def test_opposite_zeros_sharing_an_id_are_caught_at_size(n):
    rng = np.random.default_rng(n)
    values = _pack(rng.standard_normal(n), rng.permutation(n))
    values["key"][:2] = [0.0, -0.0]
    values["id"][1] = values["id"][0]
    assert strict_sort(values) is None


def _pair_inputs():
    rng = np.random.default_rng(7)
    base = _pack(rng.standard_normal(9), rng.permutation(9))
    base["key"][:3] = [-0.0, np.inf, -1e-45]
    return {
        "empty": base[:0],
        "single": base[4:5],
        "contiguous": base,
        "reversed": base[::-1],
    }


@pytest.mark.parametrize("name", list(_pair_inputs()))
def test_copy_pairs_is_copy(name):
    values = _pair_inputs()[name]
    copied = copy_pairs(values)
    assert copied.dtype == VALUE_DTYPE
    assert copied.tobytes() == values.copy().tobytes()
    assert copied.flags.c_contiguous and copied.flags.writeable
    assert not np.shares_memory(copied, values)


@pytest.mark.parametrize(
    "names",
    [
        ["empty"],
        ["single"],
        ["empty", "single"],
        ["contiguous", "reversed"],
        ["reversed", "empty", "single", "contiguous"],
    ],
)
def test_concat_pairs_is_concatenate(names):
    inputs = _pair_inputs()
    runs = [inputs[name] for name in names]
    joined = concat_pairs(runs)
    assert joined.dtype == VALUE_DTYPE
    assert joined.tobytes() == np.concatenate(runs).tobytes()
    assert not any(np.shares_memory(joined, run) for run in runs)
