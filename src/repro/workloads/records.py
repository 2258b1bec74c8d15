"""Value/pointer record workloads and sort-output verification.

Section 8 frames the "usual application scenario": sorting arbitrary data
records by a key, realised as an array of value/pointer pairs whose pointer
(= our ``id``) refers to the associated record.  :class:`RecordTable` is a
small database-style payload table exercising that pattern end to end (see
``examples/database_sort.py``), and the module provides the padding and
verification utilities every example and test uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SortInputError
from repro.core.values import make_values, values_greater
from repro.stream.stream import VALUE_DTYPE, concat_pairs, copy_pairs

__all__ = [
    "padded_length",
    "pad_to_power_of_two",
    "is_sorted_values",
    "verify_sort_output",
    "RecordTable",
]


def padded_length(n: int) -> int:
    """The length :func:`pad_to_power_of_two` pads ``n >= 1`` records to."""
    return 1 << max(1, (n - 1).bit_length())


def pad_to_power_of_two(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Pad a VALUE_DTYPE array to the next power of two with +inf keys.

    GPU-ABiSort (like the GPU sorting networks of its era) requires
    power-of-two input: "this can be achieved by padding the input
    sequence" (Section 4).  Padding rows are appended after the input, with
    ``+inf`` keys and ids above the input's largest id, so they sort after
    every real row (a real ``+inf`` key included) and the first
    ``original_length`` outputs are the answer.  At the uint32 ceiling no
    larger ids exist; the padding then takes unused small ids, which can
    sort before a real ``+inf`` row, so strip it by id (the ids of
    ``padded[original_length:]``) as
    :func:`repro.exec.stream_tier.sort_on_stream` does.  Returns
    ``(padded, original_length)``.
    """
    if values.dtype != VALUE_DTYPE:
        raise SortInputError(f"expected VALUE_DTYPE, got {values.dtype}")
    n = values.shape[0]
    if n == 0:
        raise SortInputError("cannot pad an empty sequence")
    target = padded_length(n)
    if target == n:
        return copy_pairs(values), n
    pad = np.empty(target - n, dtype=VALUE_DTYPE)
    pad["key"] = np.inf
    base = int(values["id"].max()) + 1
    if base + target - n <= 1 << 32:
        pad["id"] = np.arange(base, base + target - n, dtype=np.uint32)
    else:
        free = np.setdiff1d(np.arange(2 * target, dtype=np.uint32), values["id"])
        pad["id"] = free[: target - n]
    return concat_pairs([values, pad]), n


def is_sorted_values(values: np.ndarray, descending: bool = False) -> bool:
    """True iff the array is sorted under the (key, id) total order."""
    if values.shape[0] <= 1:
        return True
    a = values[:-1]
    b = values[1:]
    out_of_order = values_greater(a, b) != descending
    return not bool(out_of_order.any())


def verify_sort_output(original: np.ndarray, result: np.ndarray) -> None:
    """Assert ``result`` is the sorted permutation of ``original``.

    Checks (1) ascending (key, id) order and (2) multiset equality via the
    id permutation -- ids are unique, so comparing the sorted id sets and
    the keys they carry catches any lost/duplicated/corrupted element.
    Raises :class:`SortInputError` with a diagnostic on failure.
    """
    if original.shape != result.shape:
        raise SortInputError(
            f"result length {result.shape[0]} != input length {original.shape[0]}"
        )
    if not is_sorted_values(result):
        bad = np.flatnonzero(
            values_greater(result[:-1], result[1:])
        )
        raise SortInputError(f"result not ascending at positions {bad[:5]}")
    by_id_in = original[np.argsort(original["id"], kind="stable")]
    by_id_out = result[np.argsort(result["id"], kind="stable")]
    if not np.array_equal(by_id_in, by_id_out):
        raise SortInputError("result is not a permutation of the input")


@dataclass
class RecordTable:
    """A toy record store sorted through value/pointer pairs.

    ``payload`` rows are never moved during the sort; only the pair array
    is.  :meth:`sorted_payload` materialises the reordered view afterwards,
    the way a database would follow the pointers (the paper's GGKM05
    discussion: a reorder stage follows the pair sort).
    """

    keys: np.ndarray  # float32 sort keys, one per record
    payload: np.ndarray  # arbitrary per-record data, same leading dim

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float32)
        if self.keys.shape[0] != self.payload.shape[0]:
            raise SortInputError(
                f"{self.keys.shape[0]} keys vs {self.payload.shape[0]} payload rows"
            )

    def __len__(self) -> int:
        return self.keys.shape[0]

    def pairs(self) -> np.ndarray:
        """The value/pointer pair array handed to the sorter."""
        return make_values(self.keys)

    def sorted_payload(self, sorted_pairs: np.ndarray) -> np.ndarray:
        """Reorder the payload by following the sorted pair pointers."""
        if sorted_pairs.shape[0] != len(self):
            raise SortInputError("pair array length does not match table")
        return self.payload[sorted_pairs["id"]]
