"""The CPU baseline: an instrumented quicksort on value/pointer pairs.

The paper compares against "sorting on the CPU using the C++ STL sort
function (an optimized quick sort implementation)" over an array of
value/pointer pairs (Section 8).  STL ``sort`` is introsort: median-of-3
quicksort with an insertion-sort finish for small segments; we implement
that scheme with **operation counters** (comparisons + element moves) from
which :func:`repro.stream.gpu_model.cpu_sort_time_ms` models wall time.

Unlike the GPU sorters, quicksort's operation count is data dependent --
which is exactly why Tables 2 and 3 report CPU ranges ("12 - 16 ms") while
"the timings of GPU-ABiSort do not vary significantly dependent on the data
to sort (because the total number of comparisons performed by the adaptive
bitonic sorting is not data dependent)".  The counters reproduce that: runs
over different random inputs, presorted and adversarial inputs land at
different counts (see ``tests/baselines/test_cpu_sort.py``).

The partition loop is vectorised per segment (NumPy masks) per the
hpc-parallel guidance; the counts are identical to the scalar algorithm's:
one comparison per element per partition pass, one move per element that
changes position, and the classical ~k^2/4 average comparisons for each
insertion-sorted tail segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SortInputError
from repro.core.values import total_order_argsort
from repro.exec.vectorized import strict_sort
from repro.stream.stream import VALUE_DTYPE

__all__ = ["CPUSortCounters", "quicksort", "std_sort", "INSERTION_CUTOFF"]

#: Segment size below which the quicksort switches to insertion sort
#: (glibc/libstdc++ use 16; we follow).
INSERTION_CUTOFF = 16

#: Pair count from which :func:`std_sort` sorts the (key, id) composites
#: (:func:`~repro.exec.vectorized.strict_sort`) instead of calling
#: ``np.lexsort``.  Median microseconds per call on a 2-vCPU AVX-512 host
#: (numpy 2.4.6), over 32 distinct random-key inputs in turn -- one input
#: repeated lets the branch predictor learn lexsort's merges and reads
#: ~3x faster at 256 pairs:
#:
#: =====  =======  ================  ===========
#: pairs  lexsort  argsort + gather  strict_sort
#: =====  =======  ================  ===========
#:   256       32                26           26
#:   512       66                36           31
#:   640       82                33           27
#:  1024      145                47           36
#:  2048      302                73           47
#: =====  =======  ================  ===========
#:
#: Below 256 lexsort is ahead (the composites' fixed cost, ~20 us, is
#: most of a small sort).  At 256 ``strict_sort`` reads faster per call,
#: but a cutoff of 256 showed no end-to-end gain on 256-pair service
#: requests (6 alternating stackbench pairs, median ops/s -4 %, inside
#: the runs' spread), so it stays at 512.
SIMD_SORT_MIN = 512


@dataclass
class CPUSortCounters:
    """Counted work of one quicksort run."""

    comparisons: int = 0
    moves: int = 0
    partitions: int = 0
    insertion_segments: int = 0

    @property
    def total_ops(self) -> int:
        """The operation count fed to the CPU time model."""
        return self.comparisons + self.moves


def std_sort(values: np.ndarray) -> np.ndarray:
    """The environment's library sort, in the reference (key, id) order.

    From :data:`SIMD_SORT_MIN` pairs up, one SIMD sort of the ``uint64``
    (key, id) composites (:func:`repro.exec.vectorized.strict_sort`);
    with unique composites the order is forced, so the output is
    byte-identical to
    :func:`~repro.core.values.total_order_argsort` (``np.lexsort``),
    which sorts smaller inputs and any input with a shared composite.
    ``values`` meet the request contract (no NaN key), as every engine
    input does (:meth:`repro.engines.base.SortRequest.to_values`).
    """
    if values.shape[0] >= SIMD_SORT_MIN:
        ranked = strict_sort(values)
        if ranked is not None:
            return ranked
    return values[total_order_argsort(values)]


def _median_of_three(keys: np.ndarray, ids: np.ndarray, counters: CPUSortCounters) -> tuple:
    """Median of first/middle/last (by the (key, id) total order)."""
    n = keys.shape[0]
    cand_k = (keys[0], keys[n // 2], keys[n - 1])
    cand_i = (ids[0], ids[n // 2], ids[n - 1])
    order = sorted(range(3), key=lambda t: (cand_k[t], cand_i[t]))
    counters.comparisons += 3  # the classic 2-3 comparisons; count the bound
    mid = order[1]
    return cand_k[mid], cand_i[mid]


def _insertion_count(length: int) -> tuple[int, int]:
    """Modeled (comparisons, moves) of insertion sort on a random segment.

    Expected inversions of a random permutation of k elements: k(k-1)/4;
    each inversion costs one comparison and one move, plus k-1 boundary
    comparisons.
    """
    inv = length * (length - 1) // 4
    return inv + max(0, length - 1), inv


def quicksort(
    values: np.ndarray, counters: CPUSortCounters | None = None
) -> np.ndarray:
    """Median-of-3 quicksort with insertion cutoff; returns a sorted copy.

    The element order is the (key, id) total order.  ``counters`` (optional)
    receives the operation counts.  Implementation: an explicit segment
    stack; each partition pass is one vectorised three-way split (elements
    <, ==, > pivot), counting one comparison per element and one move per
    element that lands outside its original region.  Segments below
    :data:`INSERTION_CUTOFF` are finished with (modeled) insertion sort.
    """
    if values.dtype != VALUE_DTYPE:
        raise SortInputError(f"expected VALUE_DTYPE, got {values.dtype}")
    counters = counters if counters is not None else CPUSortCounters()
    out = values.copy()
    keys = out["key"]
    ids = out["id"]
    n = out.shape[0]
    if n <= 1:
        return out
    stack: list[tuple[int, int]] = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        length = hi - lo
        if length <= 1:
            continue
        if length <= INSERTION_CUTOFF:
            comps, moves = _insertion_count(length)
            counters.comparisons += comps
            counters.moves += moves
            counters.insertion_segments += 1
            seg = out[lo:hi]
            order = np.lexsort((seg["id"], seg["key"]))
            out[lo:hi] = seg[order]
            continue
        counters.partitions += 1
        pk, pi = _median_of_three(keys[lo:hi], ids[lo:hi], counters)
        seg_k = keys[lo:hi]
        seg_i = ids[lo:hi]
        less = (seg_k < pk) | ((seg_k == pk) & (seg_i < pi))
        greater = (seg_k > pk) | ((seg_k == pk) & (seg_i > pi))
        counters.comparisons += length
        n_less = int(np.count_nonzero(less))
        n_greater = int(np.count_nonzero(greater))
        n_equal = length - n_less - n_greater
        # Elements that end up outside their current zone are "moved".
        idx = np.arange(length)
        moved = np.count_nonzero(less & (idx >= n_less))
        moved += np.count_nonzero(greater & (idx < length - n_greater))
        counters.moves += 2 * int(moved)  # each misplaced pair swaps
        seg = out[lo:hi]
        reordered = np.concatenate(
            [seg[less], seg[~less & ~greater], seg[greater]]
        )
        out[lo:hi] = reordered
        # Larger segment last so the stack stays O(log n) deep.
        left = (lo, lo + n_less)
        right = (lo + n_less + n_equal, hi)
        if (left[1] - left[0]) < (right[1] - right[0]):
            stack.append(right)
            stack.append(left)
        else:
            stack.append(left)
            stack.append(right)
    return out
