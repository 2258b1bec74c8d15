"""GPU texture-cache simulation and the derived read-efficiency model.

Section 6.2.2 of the paper explains why the 1D->2D mapping matters: GPU
fragment units route *all* reads through a texture cache "where each cache
block holds a square or near-square region of the texture data", so streaming
reads from a rectangular substream reach maximum bandwidth only if the
substream is square or near-square.  No cache geometry is disclosed by
vendors (the paper makes the same complaint), so we model the canonical
design from Hakura & Gupta 1997 that the paper cites:

* the 2D element space is tiled into ``block x block`` cache blocks,
* a miss fetches the whole block,
* blocks are kept in a fully-associative LRU pool of ``capacity_blocks``.

Two tools are provided:

:class:`TextureCacheSim`
    Exact trace-driven simulation: feed it 2D access coordinates, read hit /
    miss counts.  Used in tests and for small-n validation of the analytic
    model.

:func:`block_read_efficiency`
    The analytic model used by the cost model for large n: for a linear read
    of a ``w x h`` rectangle, every touched cache block is fetched once
    (fragment rasterisation proceeds in tiles, giving intra-block locality),
    so::

        efficiency = useful elements / fetched elements
                   = (w * h) / (ceil(w/B) * ceil(h/B) * B * B)

    A thin ``1 x l`` strip (row-wise mapping, small substream) therefore
    reaches only ~``1/B`` of peak bandwidth while an aligned ``B x B``-or-
    larger square (Z-order mapping) reaches ~1.0 -- precisely the effect the
    paper measures between GPU-ABiSort (a) and (b) in Table 2.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.stream.mapping2d import Mapping2D, Rect


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the modeled texture cache.

    Defaults follow Hakura & Gupta's findings (small square blocks, a few
    kilobytes of cache): 8x8-element blocks, 128 resident blocks.
    """

    block: int = 8
    capacity_blocks: int = 128

    def __post_init__(self):
        if self.block <= 0 or self.block & (self.block - 1):
            raise ModelError(f"cache block side must be a power of two, got {self.block}")
        if self.capacity_blocks <= 0:
            raise ModelError("cache must hold at least one block")

    @property
    def block_elems(self) -> int:
        """Elements per cache block (block side squared)."""
        return self.block * self.block


class TextureCacheSim:
    """Trace-driven fully-associative LRU cache over 2D element blocks."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        """Empty the cache and zero the counters."""
        self._lru.clear()
        self.hits = 0
        self.misses = 0

    #: Run counts below this stay on the dict loop: the offline stack-
    #: distance machinery only pays off once its numpy setup amortises
    #: (measured crossover ~1k runs on high-switch-rate traces).
    VECTOR_MIN_RUNS = 1024
    #: Runs per stack-distance solve (see :meth:`access`).
    VECTOR_SEGMENT_RUNS = 1 << 13

    def access(self, ax: np.ndarray, ay: np.ndarray) -> None:
        """Process a sequence of element accesses at 2D coords ``(ax, ay)``.

        Accesses are processed in order.  Consecutive accesses to the same
        block are coalesced first (vectorised), so the per-run work scales
        with the number of block switches, not the trace length.  Long run
        sequences are then resolved in closed form by the offline LRU
        stack-distance algorithm (:meth:`_apply_runs_vectorized`) -- a run
        hits iff fewer than ``capacity_blocks`` distinct other blocks were
        touched since its block's previous run -- which is exactly
        equivalent to the dict replay (:meth:`_apply_runs`) used for short
        sequences and kept as the reference for the equality tests.
        """
        runs = self._coalesce(ax, ay)
        if runs is None:
            return
        rx, ry, counts = runs
        if (
            rx.shape[0] < self.VECTOR_MIN_RUNS
            or int(rx.min()) < 0
            or int(ry.min()) < 0
            or int(rx.max()) >= 1 << 31
            or int(ry.max()) >= 1 << 32
        ):
            self._apply_runs(rx, ry, counts)
            return
        # Bound each stack-distance solve to keep total work linear in the
        # run count (the solver is O(s log^2 s) per segment); the resident
        # prefix carries the LRU state across segments exactly.
        step = self.VECTOR_SEGMENT_RUNS
        for lo in range(0, rx.shape[0], step):
            self._apply_runs_vectorized(
                rx[lo : lo + step], ry[lo : lo + step], counts[lo : lo + step]
            )

    def _access_reference(self, ax: np.ndarray, ay: np.ndarray) -> None:
        """The pre-vectorization :meth:`access`: coalesce + dict replay."""
        runs = self._coalesce(ax, ay)
        if runs is not None:
            self._apply_runs(*runs)

    def _coalesce(
        self, ax: np.ndarray, ay: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Block coordinates and lengths of the trace's same-block runs."""
        ax = np.asarray(ax, dtype=np.int64).ravel()
        ay = np.asarray(ay, dtype=np.int64).ravel()
        if ax.shape != ay.shape:
            raise ModelError("ax/ay trace shape mismatch")
        if ax.size == 0:
            return None
        b = self.config.block
        bx = ax // b
        by = ay // b
        change = np.empty(bx.shape[0], dtype=bool)
        change[0] = True
        change[1:] = (bx[1:] != bx[:-1]) | (by[1:] != by[:-1])
        runs = np.flatnonzero(change)
        run_counts = np.diff(np.append(runs, bx.shape[0]))
        return bx[runs], by[runs], run_counts

    def _apply_runs(
        self, rx: np.ndarray, ry: np.ndarray, counts: np.ndarray
    ) -> None:
        """Reference dict replay of coalesced runs (one LRU op per run)."""
        lru = self._lru
        cap = self.config.capacity_blocks
        hits = 0
        misses = 0
        for x, y, count in zip(rx, ry, counts):
            key = (int(x), int(y))
            if key in lru:
                lru.move_to_end(key)
                hits += int(count)
            else:
                misses += 1
                hits += int(count) - 1
                lru[key] = None
                if len(lru) > cap:
                    lru.popitem(last=False)
        self.hits += hits
        self.misses += misses

    def _apply_runs_vectorized(
        self, rx: np.ndarray, ry: np.ndarray, counts: np.ndarray
    ) -> None:
        """Closed-form LRU replay of coalesced runs (no Python loop).

        The classic stack-distance characterisation: a fully-associative
        LRU cache of ``cap`` blocks serves an access from cache iff the
        number ``D`` of *distinct* other blocks accessed since the same
        block's previous access is ``< cap`` -- evictions never have to be
        replayed.  The currently-resident blocks are prepended as synthetic
        (uncounted) accesses in LRU order, which reproduces the incremental
        cache state exactly: replaying the prefix from an empty cache
        leaves precisely the resident set, in the same recency order.

        With ``P[i]`` the previous-occurrence index of run ``i`` (or -1),
        every first-in-window occurrence ``j`` of another block satisfies
        ``P[i] < j < i`` and ``P[j] <= P[i]``, and every other ``j`` in the
        window has ``P[j] > P[i]``; since additionally ``P[j] < j`` always,
        ``D(i) = #{j < i : P[j] <= P[i]} - (P[i] + 1)``.  The remaining
        dominance count is computed by :func:`_count_left_leq`.
        """
        from collections import OrderedDict as _OD

        cap = self.config.capacity_blocks
        resident = list(self._lru.keys())  # LRU -> MRU order
        npfx = len(resident)
        n = rx.shape[0]
        keys = np.empty(npfx + n, dtype=np.int64)
        if npfx:
            pre = np.asarray(resident, dtype=np.int64)
            keys[:npfx] = (pre[:, 0] << 32) | pre[:, 1]
        keys[npfx:] = (rx.astype(np.int64) << 32) | ry.astype(np.int64)
        total = keys.shape[0]

        # Previous occurrence of each run's block within the sequence.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        prev = np.full(total, -1, dtype=np.int64)
        same = sorted_keys[1:] == sorted_keys[:-1]
        prev[order[1:]] = np.where(same, order[:-1], -1)

        # A window of fewer than cap accesses can hold at most cap - 1
        # distinct other blocks, so those runs hit unconditionally; the
        # dominance solve is only needed when some window spans >= cap runs.
        idx = np.arange(total, dtype=np.int64)
        uncertain = (prev >= 0) & (idx - prev - 1 >= cap)
        if np.any(uncertain):
            distinct_between = _count_left_leq(prev) - (prev + 1)
            hit = (prev >= 0) & (distinct_between < cap)
        else:
            hit = prev >= 0

        real_hit = hit[npfx:]
        misses = int(np.count_nonzero(~real_hit))
        self.misses += misses
        self.hits += int(counts.sum()) - misses

        # Final state: the cap most-recently-used distinct blocks, oldest
        # first (insertion order below = LRU order).
        _, ridx = np.unique(keys[::-1], return_index=True)
        last_pos = np.sort(total - 1 - ridx)
        new_lru: _OD[tuple[int, int], None] = _OD()
        for pos in last_pos[-cap:]:
            key = int(keys[pos])
            new_lru[(key >> 32, key & 0xFFFFFFFF)] = None
        self._lru = new_lru

    @property
    def accesses(self) -> int:
        """Total element accesses processed."""
        return self.hits + self.misses

    @property
    def fetched_elems(self) -> int:
        """Elements transferred from memory (whole blocks per miss)."""
        return self.misses * self.config.block_elems

    @property
    def bandwidth_efficiency(self) -> float:
        """Useful elements / fetched elements (may exceed 1 with reuse)."""
        if self.misses == 0:
            return float("inf") if self.hits else 0.0
        return self.accesses / self.fetched_elems

    def simulate_linear_read(
        self, mapping: Mapping2D, start: int, length: int
    ) -> None:
        """Feed the trace of a linear 1D read of ``[start, start+length)``."""
        idx = np.arange(start, start + length, dtype=np.int64)
        ax, ay = mapping.to_2d(idx)
        self.access(np.asarray(ax), np.asarray(ay))


def _count_left_leq(v: np.ndarray) -> np.ndarray:
    """For each ``i``: ``#{j < i : v[j] <= v[i]}``, fully vectorised.

    Bottom-up merge-style divide and conquer: at segment size ``s`` every
    element of a right half is matched against the sorted left half of its
    2s-block, so each pair ``(j, i)`` with ``j < i`` is counted at exactly
    one level (the first where they share a block).  The per-row
    ``searchsorted`` calls are batched into one by lifting each row into a
    disjoint value range (row index times a span larger than any value).

    O(n log^2 n) numpy work; ``v`` values must lie in ``[-1, len(v) - 1]``
    (they are previous-occurrence indexes).
    """
    n = v.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    size = 1 << max(n - 1, 1).bit_length() if n > 1 else 1
    span = np.int64(n + 4)
    sentinel = np.int64(n + 2)  # larger than any shifted value: never counted
    vals = np.full(size, sentinel, dtype=np.int64)
    vals[:n] = v + 2  # shift [-1, n-1] into [1, n+1]
    queries = np.zeros(size, dtype=np.int64)  # padding queries count nothing
    queries[:n] = v + 2
    out = np.zeros(size, dtype=np.int64)
    s = 1
    while s < size:
        rows = size // (2 * s)
        lefts = np.sort(vals.reshape(rows, 2 * s)[:, :s], axis=1)
        offsets = np.arange(rows, dtype=np.int64)[:, None] * span
        pos = np.searchsorted(
            (lefts + offsets).ravel(),
            (queries.reshape(rows, 2 * s)[:, s:] + offsets).ravel(),
            side="right",
        )
        counts = pos.reshape(rows, s) - np.arange(rows, dtype=np.int64)[:, None] * s
        out.reshape(rows, 2 * s)[:, s:] += counts
        s *= 2
    return out[:n]


def rect_read_efficiency(rect: Rect, config: CacheConfig) -> float:
    """Analytic bandwidth efficiency of a tiled linear read of one rectangle."""
    b = config.block
    blocks_x = -(-rect.w // b)  # ceil division
    blocks_y = -(-rect.h // b)
    fetched = blocks_x * blocks_y * b * b
    return rect.area / fetched


def block_read_efficiency(
    mapping: Mapping2D,
    blocks: list[tuple[int, int]],
    config: CacheConfig | None = None,
) -> float:
    """Analytic read efficiency of a (multi-block) 1D substream.

    ``blocks`` are ``(start, stop)`` element ranges.  Each block's 2D
    footprint under ``mapping`` is a set of rectangles; the efficiency is the
    useful-to-fetched element ratio over all of them.  This is the quantity
    the cost model multiplies into the memory bandwidth term of each stream
    operation.
    """
    config = config or CacheConfig()
    useful = 0
    fetched = 0.0
    for start, stop in blocks:
        length = stop - start
        if length <= 0:
            raise ModelError(f"empty substream block [{start}, {stop})")
        for rect in mapping.block_rects(start, length):
            useful += rect.area
            fetched += rect.area / rect_read_efficiency(rect, config)
    return useful / fetched if fetched else 0.0


#: Measured bandwidth efficiency of the adaptive-merge gather traces under
#: each 1D->2D mapping: the full pointer-chasing gather trace of an
#: optimized GPU-ABiSort run replayed through :class:`TextureCacheSim` with
#: the default geometry converges to ~0.16 for the Z-order mapping and
#: ~0.085 for the row-wise mapping once the working set exceeds the cache
#: (n >= 2^16; the measurement is re-run in ``tests/stream/test_cache.py``).
#: Z-order keeps tree-adjacent nodes 2D-adjacent at every scale -- the
#: cache-oblivious property of Section 6.2.2 -- which is why its gathers
#: waste roughly half as much bandwidth as the row-wise layout's.
MEASURED_GATHER_EFFICIENCY: dict[str, float] = {
    "z-order": 0.16,
    "row-wise": 0.085,
}


def gather_efficiency(
    config: CacheConfig | None = None,
    locality: float = 0.16,
    mapping_name: str | None = None,
) -> float:
    """Bandwidth-efficiency model for data-dependent gathers.

    With ``mapping_name`` given, returns the trace-measured constant for
    that mapping (see :data:`MEASURED_GATHER_EFFICIENCY`), falling back to
    ``locality`` for unknown mappings.  Without a mapping, ``locality``
    (default: the measured Z-order value) is used directly.
    """
    config = config or CacheConfig()
    if mapping_name is not None and mapping_name in MEASURED_GATHER_EFFICIENCY:
        return MEASURED_GATHER_EFFICIENCY[mapping_name]
    if not 0.0 < locality <= 1.0:
        raise ModelError("gather locality must be in (0, 1]")
    return locality
