"""Hypothesis properties of the forced (key, id) order.

The vectorized tier sorts with one unstable argsort of the ``uint64``
composites, and the sharded sorter's vectorized path sorts no shard: its
merge sorts the union of the raw shards.  Both rest on these properties:

* the composite order is ``np.lexsort((id, key))`` order, over signed
  zeros, infinities, denormals, the float32 extremes and the whole uint32
  id range;
* :func:`~repro.exec.vectorized.strict_order` returns ``None`` exactly
  when two records share a composite (``(-0.0, i)`` and ``(+0.0, i)``
  included), so a tie never reaches an unstable sort unnoticed;
* ``ShardedSorter(d)`` is bit- and telemetry-identical to
  ``ShardedSorter(d, trace=True)``, which sorts every shard on the
  reference interpreter and plays every loser-tree match.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.sharded import ShardedSorter
from repro.exec.vectorized import composite_keys, strict_order
from repro.stream.stream import VALUE_DTYPE

_F32 = np.finfo(np.float32)
SPECIAL_KEYS = [
    0.0,
    -0.0,
    np.inf,
    -np.inf,
    float(_F32.smallest_subnormal),
    -float(_F32.smallest_subnormal),
    float(_F32.tiny),
    -float(_F32.tiny),
    float(_F32.max),
    -float(_F32.max),
    1.0,
    -1.0,
]
ID_MAX = 2**32 - 1

keys_st = st.one_of(
    st.sampled_from(SPECIAL_KEYS),
    st.floats(width=32, allow_nan=False),
)
ids_st = st.one_of(st.sampled_from([0, 1, ID_MAX - 1, ID_MAX]), st.integers(0, ID_MAX))


def _pack(keys, ids) -> np.ndarray:
    out = np.empty(len(keys), dtype=VALUE_DTYPE)
    out["key"] = np.asarray(keys, dtype=np.float32)
    out["id"] = np.asarray(ids, dtype=np.uint32)
    return out


@st.composite
def unique_id_values(draw, max_size=300):
    ids = draw(st.lists(ids_st, max_size=max_size, unique=True))
    keys = draw(st.lists(keys_st, min_size=len(ids), max_size=len(ids)))
    return _pack(keys, ids)


@given(unique_id_values())
def test_composite_order_is_lexsort_order(values):
    reference = np.lexsort((values["id"], values["key"]))
    assert np.array_equal(np.argsort(composite_keys(values)), reference)
    assert np.array_equal(strict_order(values), reference)


@given(
    st.lists(
        st.tuples(st.sampled_from(SPECIAL_KEYS + [0.5, -2.0]), st.integers(0, 6)),
        max_size=40,
    )
)
def test_strict_order_is_none_exactly_on_a_shared_composite(records):
    values = _pack([k for k, _ in records], [i for _, i in records])
    # float(-0.0) + 0.0 == +0.0: the reference compares the zeros equal.
    shared = len({(k + 0.0, i) for k, i in records}) < len(records)
    order = strict_order(values)
    assert (order is None) == shared
    if order is not None:
        assert np.array_equal(order, np.lexsort((values["id"], values["key"])))


def _op_log_lengths(result) -> list[list[int]]:
    return [[len(m.ops) for m in device.machines] for device in result.devices]


@settings(max_examples=40)
@given(
    devices=st.integers(1, 8),
    slices=st.integers(1, 2),
    n=st.one_of(st.integers(0, 9), st.integers(10, 5000)),
    seed=st.integers(0, 2**16),
    repeats=st.booleans(),
)
def test_sharded_vectorized_path_equals_reference(devices, slices, n, seed, repeats):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal(n).astype(np.float32)
    if repeats:
        keys = np.round(keys)  # heavy key ties, -0.0 among them
    # Ids up to the uint32 ceiling, where the padding takes small free ids.
    values = _pack(keys, rng.permutation(n) + rng.integers(0, 2**32 - n + 1))
    fast = ShardedSorter(devices, slices_per_device=slices).sort(values)
    ref = ShardedSorter(devices, slices_per_device=slices, trace=True).sort(values)
    expected = values[np.lexsort((values["id"], values["key"]))]
    assert fast.values.tobytes() == ref.values.tobytes() == expected.tobytes()
    assert fast.shard_sort_ms == ref.shard_sort_ms
    assert fast.merge_comparisons == ref.merge_comparisons
    assert fast.makespan_ms == ref.makespan_ms
    assert _op_log_lengths(fast) == _op_log_lengths(ref)
