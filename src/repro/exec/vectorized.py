"""The ``vectorized`` tier: whole-array numpy merges, reference-identical.

The trick that makes a bit-identical fast path possible is the paper's
own distinctness device: with unique (key, id) pairs the total order is
*strict*, so the sorted union of any runs is unique -- any correct sort
or merge must produce the byte-for-byte reference output.  The
implementation therefore reduces the (key, id) order to one ``uint64``
composite per record, sorts the concatenated composites themselves with
one ``np.sort`` of numpy's default kind (:func:`strict_sort`;
x86-simd-sort where the CPU supports it, e.g. AVX-512), and decodes the
sorted words straight back into records, with no per-element Python and
no permutation.  The composites are unique, so stability would change
nothing; and since the sort never looks for runs, the runs it merges
need not be sorted -- the sharded sorter hands it raw shards.  The one
caller that needs the permutation itself (the external sorter's merge,
for each output's provenance) argsorts the composites instead
(:func:`strict_order`).

Composite construction (:func:`composite_keys`) uses the classic
order-preserving float trick: reinterpret the float32 key as its IEEE
bit pattern, flip all bits of negatives and the sign bit of
non-negatives, and the unsigned integer order equals the float order --
including denormals and the infinities.  ``-0.0`` and ``+0.0`` compare
*equal* under Python/NumPy float comparison (the reference tree then
tie-breaks by id), but their bit patterns differ; adding ``+0.0`` to
every key maps ``-0.0`` to ``+0.0`` before the bit transform, so the
composite agrees with the reference tie-break.  Decoding inverts the bit
transform and gives the ``-0.0`` keys their sign back by id, which is
exact because a strict order has one record per composite.

Both directions move 4-byte halves, not words.  The transformed key bits
and the id are written straight into the high and low ``uint32`` halves
of one preallocated ``uint64`` array, and the sorted words are decoded
straight into the key and id fields of a fresh ``VALUE_DTYPE`` array: two
xor passes into the key field (negatives below the zero band, the rest
from it) and one copy into the id field.  No widening cast, shift or or
pass and no word-sized temporary is made either way.  Which ``uint32`` of
a word is its high half follows the host's byte order (:func:`_half`).

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

import sys

import numpy as np

from repro.exec.backend import ExecutionBackend, ReferenceBackend
from repro.stream.stream import VALUE_DTYPE, concat_pairs, copy_pairs

__all__ = ["composite_keys", "strict_order", "strict_sort", "VectorizedBackend"]

_SIGN = np.uint32(0x80000000)
_FLIP_ALL = np.uint32(0xFFFFFFFF)


def _half(bit: int) -> int:
    """Index of the ``uint32`` holding bits ``[bit, bit + 32)`` of a
    native-endian ``uint64`` word (the low half is first on little-endian)."""
    half = bit // 32
    return 1 - half if sys.byteorder == "big" else half


#: The composite's halves: the transformed key bits high, the id low.
_KEY_HALF = _half(32)
_ID_HALF = _half(0)
#: The composite band of the (folded) zero keys: ``[+0.0, next float)``.
_ZERO_BAND = np.array([0x80000000 << 32, 0x80000001 << 32], dtype=np.uint64)

#: The merge of runs that share a composite (see the module docstring).
_REFERENCE = ReferenceBackend()


def composite_keys(values: np.ndarray) -> np.ndarray:
    """One order-preserving ``uint64`` composite per (key, id) record.

    ``composite(a) < composite(b)`` iff ``(a.key, a.id) < (b.key, b.id)``
    under the reference comparison (floats compared numerically with
    ``-0.0 == +0.0``, ids breaking ties).  The transformed key bits are
    the word's high half and the id its low half, each written in place.
    """
    # -0.0 + 0.0 == +0.0: collapse the two zeros so the id tie-break
    # decides, exactly as the loser tree does.  The sum is a fresh array.
    bits = (values["key"] + np.float32(0.0)).view(np.uint32)
    # Negatives (arithmetic shift fills with ones) flip every bit,
    # non-negatives only the sign bit.
    flip = (bits.view(np.int32) >> 31).view(np.uint32)
    flip |= _SIGN
    composite = np.empty(values.shape[0], dtype=np.uint64)
    halves = composite.view(np.uint32)
    np.bitwise_xor(bits, flip, out=halves[_KEY_HALF::2])
    halves[_ID_HALF::2] = values["id"]
    return composite


def strict_order(values: np.ndarray) -> np.ndarray | None:
    """The permutation that sorts ``values`` by (key, id), or ``None``.

    One argsort of the composites, then an adjacent-equality check:
    ``None`` when two records share a composite, i.e. the order is not
    strict and the reference output is not forced.  ``values`` need not
    be presorted in any way; on a concatenation of sorted runs this is
    the k-way merge order.
    """
    composite = composite_keys(values)
    order = np.argsort(composite)
    ranked = composite[order]
    if (ranked[1:] == ranked[:-1]).any():
        return None
    return order


def strict_sort(values: np.ndarray) -> np.ndarray | None:
    """``values`` sorted by (key, id), or ``None`` (see :func:`strict_order`).

    Sorts the composites themselves -- no permutation, no gather -- and
    decodes the sorted words straight into a fresh pair array: the id
    field copied from the low halves, the key field by inverting the bit
    transform of :func:`composite_keys` on the high halves.  Negative
    keys are the composites below the zero band and the rest start at
    it, so one ``searchsorted`` splits the two inverting xors.  The
    composite folds ``-0.0`` into ``+0.0``; when the zero band is not
    empty, the input's ``-0.0`` ids are looked up in it (sorted by id)
    and get their sign back.  Byte-identical to
    ``values[strict_order(values)]``.
    """
    composite = composite_keys(values)
    composite.sort()
    if np.count_nonzero(composite[1:] == composite[:-1]):
        return None
    zero_start, zero_stop = composite.searchsorted(_ZERO_BAND).tolist()
    halves = composite.view(np.uint32)
    flipped = halves[_KEY_HALF::2]
    out = np.empty(composite.shape[0], dtype=VALUE_DTYPE)
    key = out["key"].view(np.uint32)
    np.bitwise_xor(flipped[:zero_start], _FLIP_ALL, out=key[:zero_start])
    np.bitwise_xor(flipped[zero_start:], _SIGN, out=key[zero_start:])
    out["id"] = halves[_ID_HALF::2]
    if zero_stop > zero_start:
        negative_zero_ids = values["id"][values["key"].view(np.uint32) == _SIGN]
        if negative_zero_ids.shape[0]:
            zeros = out[zero_start:zero_stop]
            zeros["key"][zeros["id"].searchsorted(negative_zero_ids)] = -0.0
    return out


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
        """Vectorized k-way merge (see :class:`ExecutionBackend`).

        One :func:`strict_sort` of the union, so with unique composites
        the runs need not be sorted: two or more live runs come back as
        their sorted union, while a single live run comes back as a copy,
        as given.  Only the shared-composite fallback relies on sorted
        runs.
        """
        # Late import: repro.analysis pulls in cluster reporting, which
        # imports the cluster layer, which imports this package.
        from repro.analysis.complexity import loser_tree_merge_comparisons

        live_runs = [r for r in runs if r.shape[0]]
        if not live_runs:
            return np.empty(0, dtype=VALUE_DTYPE), 0
        if len(live_runs) == 1:
            return copy_pairs(live_runs[0]), 0
        merged = strict_sort(concat_pairs(live_runs))
        if merged is None:
            return _REFERENCE.merge_runs(live_runs)
        return merged, loser_tree_merge_comparisons(
            merged.shape[0], len(live_runs)
        )
