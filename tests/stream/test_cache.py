"""Tests for the texture-cache simulator and efficiency models
(repro.stream.cache)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.stream.cache import (
    MEASURED_GATHER_EFFICIENCY,
    CacheConfig,
    TextureCacheSim,
    block_read_efficiency,
    gather_efficiency,
    rect_read_efficiency,
)
from repro.stream.mapping2d import Rect, RowWiseMapping, ZOrderMapping
from repro.workloads.rng import seeded_rng


class TestCacheConfig:
    def test_defaults(self):
        cfg = CacheConfig()
        assert cfg.block_elems == 64

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ModelError):
            CacheConfig(block=6)

    def test_rejects_empty_cache(self):
        with pytest.raises(ModelError):
            CacheConfig(capacity_blocks=0)


class TestTraceSim:
    def test_single_block_one_miss(self):
        sim = TextureCacheSim(CacheConfig(block=4, capacity_blocks=4))
        xs = np.array([0, 1, 2, 3, 0, 1])
        ys = np.zeros(6, dtype=np.int64)
        sim.access(xs, ys)
        assert sim.misses == 1
        assert sim.hits == 5

    def test_lru_eviction(self):
        sim = TextureCacheSim(CacheConfig(block=1, capacity_blocks=2))
        # blocks A, B, C with capacity 2: A re-access after C misses.
        sim.access(np.array([0, 1, 2, 0]), np.zeros(4, dtype=np.int64))
        assert sim.misses == 4

    def test_lru_recency_update(self):
        sim = TextureCacheSim(CacheConfig(block=1, capacity_blocks=2))
        # A B A C A : touching A before C keeps A resident (evicts B).
        sim.access(np.array([0, 1, 0, 2, 0]), np.zeros(5, dtype=np.int64))
        assert sim.misses == 3
        assert sim.hits == 2

    def test_empty_trace(self):
        sim = TextureCacheSim()
        sim.access(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert sim.accesses == 0

    def test_shape_mismatch(self):
        sim = TextureCacheSim()
        with pytest.raises(ModelError):
            sim.access(np.zeros(2), np.zeros(3))

    def test_linear_read_row_strip_efficiency(self):
        """Reading one row of 64 elements: 8 blocks fetched, 512 elements
        transferred for 64 used -> efficiency 1/8."""
        cfg = CacheConfig(block=8, capacity_blocks=128)
        sim = TextureCacheSim(cfg)
        sim.simulate_linear_read(RowWiseMapping(2048), 0, 64)
        assert sim.misses == 8
        assert sim.bandwidth_efficiency == pytest.approx(1 / 8)

    def test_linear_read_zorder_block_efficiency(self):
        """An aligned 64-element Z-order block is one 8x8 cache block."""
        cfg = CacheConfig(block=8, capacity_blocks=128)
        sim = TextureCacheSim(cfg)
        sim.simulate_linear_read(ZOrderMapping(), 0, 64)
        assert sim.misses == 1
        assert sim.bandwidth_efficiency == pytest.approx(1.0)

    def test_analytic_matches_trace_for_aligned_blocks(self):
        """The analytic model equals the trace simulation on cold aligned
        single-use reads (its defining case)."""
        cfg = CacheConfig(block=8, capacity_blocks=1024)
        for mapping in (RowWiseMapping(256), ZOrderMapping()):
            for start, length in [(0, 64), (256, 256), (1024, 16)]:
                sim = TextureCacheSim(cfg)
                sim.simulate_linear_read(mapping, start, length)
                analytic = block_read_efficiency(
                    mapping, [(start, start + length)], cfg
                )
                assert sim.bandwidth_efficiency == pytest.approx(
                    analytic, rel=0.35
                ), (mapping.name, start, length)


class TestAnalyticModel:
    def test_rect_efficiency_square(self):
        cfg = CacheConfig(block=8)
        assert rect_read_efficiency(Rect(0, 0, 8, 8), cfg) == 1.0

    def test_rect_efficiency_strip(self):
        cfg = CacheConfig(block=8)
        assert rect_read_efficiency(Rect(0, 0, 64, 1), cfg) == pytest.approx(1 / 8)

    def test_block_read_efficiency_rejects_empty(self):
        with pytest.raises(ModelError):
            block_read_efficiency(ZOrderMapping(), [(4, 4)])

    @given(e=st.integers(3, 14), mult=st.integers(0, 32))
    def test_zorder_beats_rowwise_on_small_blocks(self, e, mult):
        """For blocks below the stream width, Z-order efficiency dominates:
        the Section-6.2 argument for the mapping choice."""
        length = 1 << e
        start = mult * length
        cfg = CacheConfig(block=8)
        z = block_read_efficiency(ZOrderMapping(), [(start, start + length)], cfg)
        r = block_read_efficiency(
            RowWiseMapping(2048), [(start, start + length)], cfg
        )
        if length < 2048:
            assert z >= r
        assert 0 < z <= 1 and 0 < r <= 1


class TestGatherEfficiency:
    def test_mapping_constants(self):
        assert gather_efficiency(mapping_name="z-order") == (
            MEASURED_GATHER_EFFICIENCY["z-order"]
        )
        assert gather_efficiency(mapping_name="row-wise") == (
            MEASURED_GATHER_EFFICIENCY["row-wise"]
        )

    def test_zorder_gathers_beat_rowwise(self):
        assert (
            MEASURED_GATHER_EFFICIENCY["z-order"]
            > MEASURED_GATHER_EFFICIENCY["row-wise"]
        )

    def test_locality_fallback(self):
        assert gather_efficiency(locality=0.5) == 0.5
        assert gather_efficiency(locality=0.5, mapping_name="weird") == 0.5

    def test_invalid_locality(self):
        with pytest.raises(ModelError):
            gather_efficiency(locality=0.0)


@pytest.mark.slow
def test_gather_trace_vs_measured_constants():
    """Re-derive the baked-in gather efficiencies from a real run.

    Replays the full gather trace of an optimized GPU-ABiSort run through
    the cache simulator under both mappings and checks the measured
    bandwidth efficiencies are within 30% of the constants the cost model
    uses (they were measured at n >= 2^16; this test uses 2^14 for speed,
    where Z-order is slightly better than asymptotic).
    """
    from repro.core.optimized import OptimizedGPUABiSorter
    from repro.stream.context import StreamMachine
    from repro.workloads.generators import paper_workload

    sorter = OptimizedGPUABiSorter()
    sorter.sort(paper_workload(1 << 14), StreamMachine(trace_gathers=True))

    for mapping, name in [(RowWiseMapping(2048), "row-wise"), (ZOrderMapping(), "z-order")]:
        sim = TextureCacheSim(CacheConfig(block=8, capacity_blocks=128))
        for _kernel, traces in sorter.last_machine.gather_traces:
            for idx in traces:
                ax, ay = mapping.to_2d(idx)
                sim.access(np.asarray(ax), np.asarray(ay))
        measured = sim.bandwidth_efficiency
        baked = MEASURED_GATHER_EFFICIENCY[name]
        assert measured == pytest.approx(baked, rel=0.35), (name, measured)


class TestVectorizedAccessEquality:
    """The stack-distance fast path equals the dict replay *exactly*.

    ``access`` dispatches long run sequences to the offline LRU solver
    (:meth:`TextureCacheSim._apply_runs_vectorized`); these tests force
    that path (``VECTOR_MIN_RUNS = 0``, tiny segment sizes) and compare
    every observable -- hit/miss counters *and* the resident set with its
    LRU ordering -- against ``_access_reference``, the pre-vectorization
    coalesce + dict replay kept verbatim for this purpose.
    """

    @staticmethod
    def _twin_sims(cfg):
        fast = TextureCacheSim(cfg)
        fast.VECTOR_MIN_RUNS = 0  # force the stack-distance path
        slow = TextureCacheSim(cfg)
        return fast, slow

    @staticmethod
    def _assert_state_equal(fast, slow, context):
        assert fast.hits == slow.hits, context
        assert fast.misses == slow.misses, context
        assert list(fast._lru) == list(slow._lru), context

    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, seed):
        rng = seeded_rng(seed)
        cfg = CacheConfig(
            block=int(2 ** rng.integers(0, 4)),
            capacity_blocks=int(rng.integers(1, 40)),
        )
        fast, slow = self._twin_sims(cfg)
        fast.VECTOR_SEGMENT_RUNS = int(rng.integers(2, 64))  # force segments
        for call in range(4):  # stateful: LRU carries across calls
            n = int(rng.integers(0, 600))
            span = int(rng.integers(1, 50)) * cfg.block
            ax = rng.integers(0, span, size=n)
            ay = rng.integers(0, span, size=n)
            fast.access(ax, ay)
            slow._access_reference(ax, ay)
            self._assert_state_equal(fast, slow, (seed, call))

    @pytest.mark.parametrize("pattern", ["linear", "revisit", "thrash"])
    def test_structured_traces(self, pattern):
        cfg = CacheConfig(block=4, capacity_blocks=8)
        fast, slow = self._twin_sims(cfg)
        fast.VECTOR_SEGMENT_RUNS = 16
        n = 2000
        if pattern == "linear":
            ax = np.arange(n) % 256
            ay = np.arange(n) // 256
        elif pattern == "revisit":
            ax = np.tile(np.arange(64), n // 64)
            ay = np.zeros(ax.shape[0], dtype=np.int64)
        else:  # thrash: working set just over capacity
            ax = np.arange(n) % (cfg.block * (cfg.capacity_blocks + 1))
            ay = np.zeros(n, dtype=np.int64)
        fast.access(ax, ay)
        slow._access_reference(ax, ay)
        self._assert_state_equal(fast, slow, pattern)

    def test_resident_prefix_continuity(self):
        """A warm cache must influence the first vectorized segment."""
        cfg = CacheConfig(block=1, capacity_blocks=4)
        fast, slow = self._twin_sims(cfg)
        warm = np.array([0, 1, 2, 3])
        fast.access(warm, np.zeros(4, dtype=np.int64))
        slow._access_reference(warm, np.zeros(4, dtype=np.int64))
        # Re-touching the warm blocks must be all hits on both paths.
        fast.access(warm[::-1], np.zeros(4, dtype=np.int64))
        slow._access_reference(warm[::-1], np.zeros(4, dtype=np.int64))
        self._assert_state_equal(fast, slow, "warm")
        assert fast.misses == 4 and fast.hits == 4

    def test_guard_falls_back_outside_key_range(self):
        """Negative or huge coordinates stay on the dict loop (and agree)."""
        cfg = CacheConfig(block=1, capacity_blocks=2)
        fast, slow = self._twin_sims(cfg)
        ax = np.array([-5, -5, 3, -5] * 300)
        ay = np.array([0, 0, 1, 0] * 300)
        fast.access(ax, ay)
        slow._access_reference(ax, ay)
        self._assert_state_equal(fast, slow, "negative")


class TestCountLeftLeq:
    def test_brute_force(self):
        from repro.stream.cache import _count_left_leq

        rng = seeded_rng(0)
        for _ in range(60):
            n = int(rng.integers(0, 70))
            # The access-path domain: prev-occurrence indexes in [-1, n).
            v = rng.integers(-1, max(n, 1), size=n)
            got = _count_left_leq(v)
            want = np.array(
                [np.count_nonzero(v[:i] <= v[i]) for i in range(n)],
                dtype=np.int64,
            )
            assert np.array_equal(got, want), v
