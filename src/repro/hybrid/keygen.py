"""The key-generator stage: wide sort keys on a 32-bit-float GPU sorter.

GPU sorters of the paper's era compare 32-bit floats.  GPUTeraSort's *key
generator* (paper Section 2.2) maps wide database keys onto such partial
keys; ties under the partial key are resolved afterwards.  We implement the
same scheme for uint64 keys:

1. :func:`encode_high_word` -- an **order-preserving** map from the high 32
   bits of each key to float32.  float32 has a 24-bit significand, so we
   use the high 16 bits exactly (all uint16 values are exactly
   representable) -- a partial key that preserves order with possible ties.
2. GPU-ABiSort sorts by the partial key (ids keep the sort total).
3. :func:`refine_tie_groups` finds runs of equal partial keys and re-sorts
   each run by the next 16-bit digit, recursively, using the full sorter on
   the runs (large runs) or the CPU path (small runs) -- the *reorder*
   stage.

:func:`sort_wide_keys` packages the three steps.  The construction is
deliberately digit-based so its cost degrades gracefully with key entropy:
uniformly random keys almost never tie on 16 bits, while adversarial
low-entropy keys fall back to more refinement passes (tested both ways).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortInputError
from repro.core.api import ABiSortConfig
from repro.core.values import make_values

__all__ = ["encode_high_word", "refine_tie_groups", "sort_wide_keys", "DIGIT_BITS"]

#: Bits consumed per partial-key pass (uint16 digits are exactly
#: representable in float32).
DIGIT_BITS = 16


def encode_high_word(keys: np.ndarray, shift: int) -> np.ndarray:
    """Order-preserving float32 partial key: bits [shift, shift+16) of keys.

    All 2^16 digit values map to distinct float32 values (integers below
    2^24 are exact), so ``a < b`` on the digit implies the same on the
    encoding -- the property that makes partial-key sorting sound.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if shift < 0 or shift + DIGIT_BITS > 64:
        raise SortInputError(f"digit shift {shift} outside a 64-bit key")
    digit = (keys >> np.uint64(shift)) & np.uint64((1 << DIGIT_BITS) - 1)
    return digit.astype(np.float32)


def _sort_indices_by_digit(
    keys: np.ndarray, idx: np.ndarray, shift: int, config: ABiSortConfig
) -> np.ndarray:
    """Sort the key subset ``keys[idx]`` by one digit; returns reordered idx."""
    # late: repro.exec imports this subpackage
    from repro.exec.stream_tier import sort_on_stream

    partial = encode_high_word(keys[idx], shift)
    pairs = make_values(partial, np.arange(idx.shape[0], dtype=np.uint32))
    out, _machine = sort_on_stream(config, pairs)
    return idx[out["id"]]


def refine_tie_groups(
    keys: np.ndarray, idx: np.ndarray, shift: int, config: ABiSortConfig
) -> np.ndarray:
    """Re-sort runs of equal higher digits by the digit at ``shift``.

    ``idx`` must already be sorted by all digits above ``shift``; runs that
    tie on those digits are independently sorted by the current digit.  The
    per-run sorts also run on GPU-ABiSort, mirroring GPUTeraSort's repeated
    GPU passes for wide keys.
    """
    if idx.shape[0] <= 1:
        return idx
    mask = np.uint64(0)
    for s in range(shift + DIGIT_BITS, 64, DIGIT_BITS):
        mask |= np.uint64(((1 << DIGIT_BITS) - 1) << s)
    prefix = np.asarray(keys, dtype=np.uint64)[idx] & mask
    boundaries = np.flatnonzero(np.diff(prefix) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [idx.shape[0]]])
    out = idx.copy()
    for a, b in zip(starts, stops):
        if b - a > 1:
            out[a:b] = _sort_indices_by_digit(keys, idx[a:b], shift, config)
    return out


def sort_wide_keys(
    keys: np.ndarray, config: ABiSortConfig | None = None
) -> np.ndarray:
    """Sort uint64 keys with a 32-bit-float GPU sorter; returns the argsort.

    Four digit passes, most significant first: sort everything by the top
    digit, then refine ties digit by digit.  The result is the permutation
    that sorts ``keys`` ascending (stable within exact duplicates by
    original position, courtesy of the id tiebreak).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 1:
        raise SortInputError("wide keys must be a 1D array")
    if keys.shape[0] == 0:
        return np.array([], dtype=np.int64)
    config = config or ABiSortConfig()
    idx = np.arange(keys.shape[0], dtype=np.int64)
    idx = _sort_indices_by_digit(keys, idx, 48, config)
    for shift in (32, 16, 0):
        idx = refine_tie_groups(keys, idx, shift, config)
    return idx
