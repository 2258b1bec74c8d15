"""The ``vectorized`` tier: whole-array numpy merges, reference-identical.

The trick that makes a bit-identical fast path possible is the paper's
own distinctness device: with unique (key, id) pairs the total order is
*strict*, so the sorted union of sorted runs is unique -- any correct
merge algorithm must produce the byte-for-byte reference output.  The
implementation therefore reduces the (key, id) order to one ``uint64``
composite per record and merges k runs with one stable argsort over
their concatenated composites (:func:`strict_order`; timsort finds the
runs), with no per-element Python.

Composite construction (:func:`composite_keys`) uses the classic
order-preserving float trick: reinterpret the float32 key as its IEEE
bit pattern, flip all bits of negatives and the sign bit of
non-negatives, and the unsigned integer order equals the float order --
including denormals and the infinities.  ``-0.0`` and ``+0.0`` compare
*equal* under Python/NumPy float comparison (the reference tree then
tie-breaks by id), but their bit patterns differ; keys equal to zero are
canonicalized to ``+0.0`` before the bit transform so the composite
agrees with the reference tie-break.

Inputs meet the (key, id) contract -- no NaN key, unique ids -- because
:meth:`~repro.engines.base.SortRequest.to_values` checks it once per
request.  Two records can still share a composite in one place:
:class:`~repro.store.SortedStore` runs from separate inserts that reuse
explicit ids.  There the reference output depends on the loser tree's
internal structure (``(-0.0, i)`` and ``(+0.0, i)`` share a composite
but differ in bytes), so :meth:`VectorizedBackend.merge_runs` runs the
reference merge for them.
"""

from __future__ import annotations

import numpy as np

from repro.exec.backend import ExecutionBackend, ReferenceBackend
from repro.stream.stream import VALUE_DTYPE

__all__ = ["composite_keys", "strict_order", "VectorizedBackend"]

_SIGN = np.uint32(0x80000000)

#: The merge of runs that share a composite (see the module docstring).
_REFERENCE = ReferenceBackend()


def composite_keys(values: np.ndarray) -> np.ndarray:
    """One order-preserving ``uint64`` composite per (key, id) record.

    ``composite(a) < composite(b)`` iff ``(a.key, a.id) < (b.key, b.id)``
    under the reference comparison (floats compared numerically with
    ``-0.0 == +0.0``, ids breaking ties).
    """
    keys = np.ascontiguousarray(values["key"])
    # -0.0 == +0.0 in the reference order; collapse the two bit patterns
    # so the id tie-break decides, exactly as the loser tree does.
    keys = np.where(keys == np.float32(0.0), np.float32(0.0), keys)
    bits = keys.view(np.uint32)
    negative = (bits & _SIGN) != 0
    bits = np.where(negative, ~bits, bits | _SIGN)
    composite = bits.astype(np.uint64) << np.uint64(32)
    composite |= values["id"].astype(np.uint64)
    return composite


def strict_order(values: np.ndarray) -> np.ndarray | None:
    """The permutation that sorts ``values`` by (key, id), or ``None``.

    One stable argsort of the composites, then an adjacent-equality check:
    ``None`` when two records share a composite, i.e. the order is not
    strict and the reference output is not forced.  On a concatenation
    of sorted runs this is the k-way merge order.
    """
    composite = composite_keys(values)
    order = np.argsort(composite, kind="stable")
    ranked = composite[order]
    if (ranked[1:] == ranked[:-1]).any():
        return None
    return order


class VectorizedBackend(ExecutionBackend):
    """The serving tier: numpy merges with reference-identical accounting.

    Comparisons are charged by the closed form
    :func:`repro.analysis.complexity.loser_tree_merge_comparisons`,
    which equals the reference tree's counter *exactly* (the tree plays
    ``K-1`` build matches and replays precisely ``log2 K`` matches per
    emitted element regardless of the data).  Runs that share a
    composite run the :class:`~repro.exec.backend.ReferenceBackend`
    outright (see the module docstring).
    """

    name = "vectorized"

    def merge_runs(self, runs: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """Vectorized k-way merge (see :class:`ExecutionBackend`)."""
        # Late import: repro.analysis pulls in cluster reporting, which
        # imports the cluster layer, which imports this package.
        from repro.analysis.complexity import loser_tree_merge_comparisons

        live_runs = [r for r in runs if r.shape[0]]
        if not live_runs:
            return np.empty(0, dtype=VALUE_DTYPE), 0
        merged = np.concatenate(live_runs)
        if len(live_runs) == 1:
            return merged, 0
        order = strict_order(merged)
        if order is None:
            return _REFERENCE.merge_runs(live_runs)
        return merged[order], loser_tree_merge_comparisons(
            merged.shape[0], len(live_runs)
        )
