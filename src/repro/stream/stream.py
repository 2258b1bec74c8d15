"""Typed 1D streams and substreams.

In the stream programming model (paper Section 3.1) a *stream* is an ordered
set of data of an arbitrary data type and a *substream* is "a contiguous
range of elements from a given stream"; on some stream hardware (including
GPUs) "a substream can also be defined by multiple non-overlapping ranges of
elements from a stream".  This module provides both.

Streams are backed by NumPy arrays.  Field access (``stream.field("key")``)
returns a *view*, never a copy, in keeping with the hpc-parallel guidance to
operate on views; all element movement is performed by the kernel machinery
in :mod:`repro.stream.kernel` so that it can be counted.

Data types
----------

``VALUE_DTYPE``
    The paper's ``value_t`` (Listing 1): a 32-bit float primary sort key plus
    a unique 32-bit id used both as the secondary sort key (to make elements
    distinct, Section 8) and as the pointer to the record being sorted.

``NODE_DTYPE``
    The paper's ``node_t``: a value plus ``left``/``right`` child indexes
    into the node stream.

``PQ_DTYPE``
    The element type of the pq-index streams holding the temporary node
    pointers ``p`` and ``q`` between phases (Section 5.1); one stream element
    per index, two pushed per kernel instance, exactly as in Listing 3/4.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import SortInputError, SubstreamError

#: Sort-key/record-pointer pair (paper Listing 1, ``value_t``).
VALUE_DTYPE = np.dtype([("key", np.float32), ("id", np.uint32)])

#: Bytes of one value/pointer pair: what the bus, the disk and every cost
#: model move per element (Section 8's 8-byte pairs).
PAIR_BYTES = VALUE_DTYPE.itemsize

#: Bitonic tree node (paper Listing 1, ``node_t``).  ``left``/``right`` are
#: indexes into a node stream; -1 marks "unused" (leaves and spare nodes).
NODE_DTYPE = np.dtype(
    [("key", np.float32), ("id", np.uint32), ("left", np.int64), ("right", np.int64)]
)

#: Node-pointer element for the pq-index streams (paper ``index_t``).
PQ_DTYPE = np.dtype(np.int64)


def check_values(values: np.ndarray) -> np.ndarray:
    """Return ``values`` if it meets the (key, id) input contract.

    The contract is the paper's (Sections 4 and 8): ``VALUE_DTYPE``
    records, orderable keys (no NaN) and unique ids, so that the id can
    serve as the secondary sort key that makes every element distinct.
    Raises :class:`~repro.errors.SortInputError` otherwise.
    """
    if values.dtype != VALUE_DTYPE:
        raise SortInputError(
            f"expected VALUE_DTYPE input, got {values.dtype}; "
            f"use repro.make_values"
        )
    _reject_nan(values["key"])
    # A contiguous copy: the comparisons below run faster on it than on
    # the strided field, and the fallback sorts it in place.
    ids = values["id"].copy()
    if not (ids[1:] > ids[:-1]).all():  # increasing ids (positions) are unique
        ids.sort()
        if (ids[1:] == ids[:-1]).any():
            raise SortInputError(
                "value ids must be unique: they serve as the secondary sort "
                "key that makes all elements distinct (paper Sections 4 and 8)"
            )
    return values


def _reject_nan(keys: np.ndarray) -> None:
    """Raise :class:`~repro.errors.SortInputError` if any key is NaN."""
    if np.isnan(keys).any():
        raise SortInputError(
            "NaN sort keys are not orderable; the (key, id) total order "
            "the algorithm relies on (paper Section 4) breaks down. "
            "Filter or map NaNs before sorting."
        )


#: Number of distinct ``uint32`` ids: ``arange`` positions past it wrap.
MAX_GENERATED_IDS = 1 << 32


def make_values(keys: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
    """Pack ``keys`` (and optional ``ids``) into a ``VALUE_DTYPE`` array.

    When ``ids`` is omitted, the original positions ``0..n-1`` are used,
    which is exactly the paper's distinctness trick (Section 4: "Distinctness
    can be enforced by using the original position of the elements in the
    input sequence as secondary sort key").  Those ids are unique by
    construction up to :data:`MAX_GENERATED_IDS` pairs (longer inputs are
    rejected), so only the keys are checked for NaN; supplied ``ids`` get
    the full :func:`check_values`.

    This is where every face's values meet the contract, so it also
    refuses what a cast would silently change: a finite key beyond
    float32's range (it would become ±inf; ±inf keys themselves are in
    contract) and an id that is no integer in ``[0, 2**32)``.  Both
    checks are skipped when the dtype proves them (``float32`` keys,
    ``uint32`` ids).  Each raises :class:`~repro.errors.SortInputError`,
    as do keys that are not 1-D and ids of another shape than the keys.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise SortInputError(f"keys must be 1-D, got shape {keys.shape}")
    if keys.dtype != np.float32:
        keys = _float32_keys(keys)
    if ids is None and keys.shape[0] > MAX_GENERATED_IDS:
        raise SortInputError(
            f"{keys.shape[0]} keys exceed the {MAX_GENERATED_IDS} distinct "
            f"uint32 positions; generated ids would repeat"
        )
    out = np.empty(keys.shape[0], dtype=VALUE_DTYPE)
    out["key"] = keys
    if ids is None:
        _reject_nan(keys)
        out["id"] = np.arange(keys.shape[0], dtype=np.uint32)
        return out
    ids = np.asarray(ids)
    if ids.shape != keys.shape:
        raise SortInputError(
            f"ids and keys must have the same shape, got ids {ids.shape} "
            f"and keys {keys.shape}"
        )
    out["id"] = ids if ids.dtype == np.uint32 else _uint32_ids(ids)
    return check_values(out)


def _float32_keys(keys: np.ndarray) -> np.ndarray:
    """``keys`` cast to float32, refusing a finite key the cast makes ±inf.

    The cast itself detects the overflow (``np.errstate(over="raise")``),
    so no ``RuntimeWarning`` is emitted; a Python int too large for any
    float raises during the same cast.
    """
    try:
        with np.errstate(over="raise"):
            return keys.astype(np.float32)
    except (FloatingPointError, OverflowError):
        raise SortInputError(
            "keys must lie within float32's range (magnitude at most "
            "3.4028235e+38) or be infinite: a larger finite key would "
            "round to infinity"
        ) from None


def _uint32_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` as uint32, or a :class:`~repro.errors.SortInputError`
    naming the first one that is no integer in ``[0, 2**32)``."""
    if ids.dtype.kind in "iu" and (
        ids.size == 0 or (ids.min() >= 0 and ids.max() < MAX_GENERATED_IDS)
    ):
        return ids.astype(np.uint32)
    bad = [i for i in ids.tolist()
           if type(i) is not int or not 0 <= i < MAX_GENERATED_IDS]
    if not bad:  # an empty array of any dtype, or Python ints in range
        return ids.astype(np.uint32)
    raise SortInputError(
        f"ids must be integers in [0, 2**32) (uint32 record pointers), "
        f"not {bad[0]!r}"
    )


def copy_pairs(values: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``values``, moved as one 8-byte word per pair.

    Byte-identical to ``values.copy()``; viewing each pair as a
    ``uint64`` skips numpy's structured-dtype copy loop, which is over an
    order of magnitude slower for the same bytes.
    """
    return values.view(np.uint64).copy().view(values.dtype)


def concat_pairs(runs: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(runs)`` of pair arrays, moved as 8-byte words.

    Every run shares the first run's dtype (``VALUE_DTYPE`` in practice);
    the result is byte-identical to ``np.concatenate``.
    """
    return np.concatenate([run.view(np.uint64) for run in runs]).view(runs[0].dtype)


def make_nodes(n: int) -> np.ndarray:
    """Allocate an uninitialised ``NODE_DTYPE`` array of ``n`` nodes.

    Child indexes are set to -1 ("unused"); keys/ids are zeroed so that
    validation code never observes uninitialised memory.
    """
    nodes = np.zeros(n, dtype=NODE_DTYPE)
    nodes["left"] = -1
    nodes["right"] = -1
    return nodes


def values_greater(
    a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Vectorised total-order comparison ``a > b`` on ``VALUE_DTYPE`` fields.

    Implements the paper's ``operator>`` (Listing 1)::

        p.key > q.key  or  (p.key == q.key and p.id > q.id)

    Works on any array exposing ``key`` and ``id`` fields (values or nodes).
    """
    ak, bk = a["key"], b["key"]
    return (ak > bk) | ((ak == bk) & (a["id"] > b["id"]))


class Stream:
    """A 1D stream: ordered, typed storage a stream operation can traverse.

    Parameters
    ----------
    name:
        Diagnostic name used in the stream-op log.
    data:
        The backing NumPy array.  The stream takes ownership; callers should
        not alias it except through :meth:`field` / :meth:`array` views.
    """

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: np.ndarray):
        if data.ndim != 1:
            raise ValueError(f"stream storage must be 1D, got shape {data.shape}")
        self.name = name
        self.data = data

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Element type of the stream."""
        return self.data.dtype

    @property
    def itemsize(self) -> int:
        """Bytes per stream element."""
        return self.data.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total stream storage in bytes."""
        return self.data.nbytes

    def array(self) -> np.ndarray:
        """The full backing array (a view; mutating it bypasses accounting)."""
        return self.data

    def field(self, name: str) -> np.ndarray:
        """A view of one record field (e.g. ``key``) across the stream."""
        return self.data[name]

    def sub(self, start: int, stop: int) -> "Substream":
        """The contiguous substream ``[start, stop)``.

        Mirrors the paper's ``s[a .. b]`` notation (Appendix A), except that
        the Python convention of an exclusive upper bound is used.
        """
        return Substream(self, [(start, stop)])

    def whole(self) -> "Substream":
        """The substream covering the entire stream."""
        return Substream(self, [(0, len(self))])

    def multi(self, blocks: Iterable[tuple[int, int]]) -> "Substream":
        """A multi-block substream from ``(start, stop)`` ranges.

        Available because "on some stream hardware (including the GPU), a
        substream can also be defined by multiple non-overlapping ranges of
        elements from a stream" (Section 3.1); the overlapped merge schedule
        of Section 5.4 depends on this.
        """
        return Substream(self, list(blocks))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, len={len(self)}, dtype={self.dtype})"


class Substream:
    """One or more non-overlapping contiguous element ranges of a stream.

    The block list is validated on construction: every block must be
    non-empty, lie within the stream, and blocks must not overlap (they may
    be given in any order; they are kept in the given order because for a
    multi-block substream the traversal order *is* the block order).
    """

    __slots__ = ("stream", "blocks")

    def __init__(self, stream: Stream, blocks: Sequence[tuple[int, int]]):
        if not blocks:
            raise SubstreamError("substream must contain at least one block")
        n = len(stream)
        for start, stop in blocks:
            if not (0 <= start < stop <= n):
                raise SubstreamError(
                    f"block [{start}, {stop}) out of range for stream "
                    f"{stream.name!r} of length {n}"
                )
        ordered = sorted(blocks)
        for (s0, e0), (s1, _e1) in zip(ordered, ordered[1:]):
            if s1 < e0:
                raise SubstreamError(
                    f"substream blocks overlap: [{s0}, {e0}) and [{s1}, {_e1}) "
                    f"in stream {stream.name!r}"
                )
        self.stream = stream
        self.blocks = [(int(s), int(e)) for s, e in blocks]

    def __len__(self) -> int:
        return sum(stop - start for start, stop in self.blocks)

    @property
    def is_contiguous(self) -> bool:
        """True when the substream is a single contiguous range."""
        return len(self.blocks) == 1

    def gather_view(self) -> np.ndarray:
        """The substream contents in traversal order.

        Returns a zero-copy view for a single block and a concatenated copy
        for multiple blocks (reading a multi-block substream necessarily
        assembles the blocks; the kernel machinery accounts for the reads).
        """
        if self.is_contiguous:
            start, stop = self.blocks[0]
            return self.stream.data[start:stop]
        return np.concatenate(
            [self.stream.data[start:stop] for start, stop in self.blocks]
        )

    def write(self, data: np.ndarray) -> None:
        """Linearly write ``data`` into the substream (in block order).

        This is the *only* way data enters a stream: it models the stream
        write of kernel output.  ``data`` must exactly fill the substream.
        """
        if data.shape[0] != len(self):
            raise SubstreamError(
                f"linear write of {data.shape[0]} elements into substream of "
                f"length {len(self)} (stream {self.stream.name!r})"
            )
        offset = 0
        for start, stop in self.blocks:
            span = stop - start
            self.stream.data[start:stop] = data[offset : offset + span]
            offset += span

    def write_field(self, field: str, data: np.ndarray) -> None:
        """Linearly write a single record field (e.g. ``.value`` substreams).

        The paper's ``s.value`` notation (Appendix A) denotes the substream
        of just the value components; phase-0 kernels write node *values*
        without child pointers (Listing 3).
        """
        if data.shape[0] != len(self):
            raise SubstreamError(
                f"linear field write of {data.shape[0]} elements into "
                f"substream of length {len(self)}"
            )
        offset = 0
        view = self.stream.data[field]
        for start, stop in self.blocks:
            span = stop - start
            view[start:stop] = data[offset : offset + span]
            offset += span

    def element_indices(self) -> np.ndarray:
        """Absolute element indices covered, in traversal order."""
        return np.concatenate(
            [np.arange(start, stop, dtype=np.int64) for start, stop in self.blocks]
        )

    def overlaps(self, other: "Substream") -> bool:
        """True if the two substreams share stream storage elements."""
        if self.stream is not other.stream:
            return False
        for s0, e0 in self.blocks:
            for s1, e1 in other.blocks:
                if max(s0, s1) < min(e0, e1):
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Substream({self.stream.name!r}, blocks={self.blocks})"
