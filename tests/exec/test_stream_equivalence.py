"""Seeded fuzz: the vectorized *stream* tier is bit- and telemetry-identical.

``tests/exec/test_equivalence.py`` pins the serving hot loops (merge and
out-of-core pipeline); this module pins the stream tier underneath
(:mod:`repro.exec.stream_tier`): whole GPU-ABiSort and network passes
run in counting mode, and the contract is identity of *everything* a
caller can observe -- sorted bytes, the :class:`StreamOpRecord` log,
:class:`MachineCounters`, the cache-efficiency-weighted modeled cost,
and the engine telemetry (minus ``wall_time_s``, the one measured
field).  The grid includes the inputs that break naive fast paths:
non-power-of-two lengths (padding), n in {0, 1}, and the memoized
repeat-length path.  NaN keys and duplicate ids are outside the input
contract: both tiers reject them at the request with the same error.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.errors import SortInputError
from repro.exec import resolve_request_tier
from repro.exec.stream_tier import sorted_output
from repro.core.values import reference_sort
from repro.stream.cache import CacheConfig, TextureCacheSim
from repro.stream.gpu_model import GEFORCE_7800_GTX, estimate_gpu_time_ms
from repro.stream.mapping2d import ZOrderMapping
from repro.stream.stream import VALUE_DTYPE
from repro.workloads.rng import seeded_rng

ABISORT_ENGINES = (
    "abisort",
    "abisort-overlapped",
    "abisort-sequential",
    "abisort-sequential-optimized",
    "abisort-brook",
)
NETWORK_ENGINES = ("bitonic-network", "odd-even-merge", "periodic-balanced")


def _values(keys, ids=None) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.float32)
    out = np.empty(keys.shape[0], dtype=VALUE_DTYPE)
    out["key"] = keys
    out["id"] = (
        np.arange(keys.shape[0], dtype=np.uint32)
        if ids is None
        else np.asarray(ids, dtype=np.uint32)
    )
    return out


def _random_values(rng, n: int) -> np.ndarray:
    # Quantized keys produce plenty of duplicate *keys* (the ids keep the
    # total order strict, which is the paper's distinctness device).
    keys = (rng.random(n, dtype=np.float32) * 16).round() / 16
    ids = rng.permutation(n).astype(np.uint32)
    return _values(keys, ids)


def _sort_tier(engine: str, values: np.ndarray, tier: str):
    # The reference tier is reached the one way a caller reaches it: trace.
    request = repro.SortRequest(values=values.copy(), trace=tier == "reference")
    return repro.sort(request, engine=engine)


def _telemetry_dict(result) -> dict:
    d = dataclasses.asdict(result.telemetry)
    d.pop("wall_time_s")  # measured, legitimately tier-dependent
    return d


def _cache_replay_stats(machine) -> tuple[int, int]:
    mapping = ZOrderMapping()
    sim = TextureCacheSim(CacheConfig())
    for op in machine.ops:
        for _, blocks in op.input_blocks:
            for start, stop in blocks:
                for rect in mapping.block_rects(start, stop - start):
                    ys, xs = np.mgrid[
                        rect.y : rect.y + rect.h, rect.x : rect.x + rect.w
                    ]
                    sim.access(xs.ravel(), ys.ravel())
    return sim.hits, sim.misses


def _assert_identical(ref, vec, *, cache_replay: bool = False) -> None:
    assert ref.values.tobytes() == vec.values.tobytes()
    assert _telemetry_dict(ref) == _telemetry_dict(vec)
    assert (ref.machine is None) == (vec.machine is None)
    if ref.machine is not None:
        assert ref.machine.ops == vec.machine.ops
        assert ref.machine.counters() == vec.machine.counters()
        mapping = ZOrderMapping()
        assert estimate_gpu_time_ms(
            ref.machine.ops, GEFORCE_7800_GTX, mapping
        ) == estimate_gpu_time_ms(vec.machine.ops, GEFORCE_7800_GTX, mapping)
        if cache_replay:
            assert _cache_replay_stats(ref.machine) == _cache_replay_stats(
                vec.machine
            )


class TestABiSortEquivalence:
    @pytest.mark.parametrize("engine", ABISORT_ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_lengths(self, engine, seed):
        rng = seeded_rng(seed)
        # Random lengths, deliberately mostly non-powers-of-two (padding).
        for n in rng.integers(2, 600, size=3):
            values = _random_values(rng, int(n))
            ref = _sort_tier(engine, values, "reference")
            vec = _sort_tier(engine, values, "vectorized")
            _assert_identical(ref, vec, cache_replay=n <= 64)

    @pytest.mark.parametrize("engine", ABISORT_ENGINES)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
    def test_edge_lengths(self, engine, n):
        rng = seeded_rng(42)
        values = _random_values(rng, n)
        _assert_identical(
            _sort_tier(engine, values, "reference"),
            _sort_tier(engine, values, "vectorized"),
        )

    def test_larger_power_of_two(self):
        rng = seeded_rng(3)
        values = _random_values(rng, 4096)
        _assert_identical(
            _sort_tier("abisort", values, "reference"),
            _sort_tier("abisort", values, "vectorized"),
        )

    @pytest.mark.parametrize("engine", ABISORT_ENGINES)
    @pytest.mark.parametrize("tier", ["reference", "vectorized"])
    def test_nan_keys_rejected_at_the_request(self, engine, tier):
        rng = seeded_rng(9)
        values = _random_values(rng, 64)
        values["key"][rng.integers(0, 64, size=5)] = np.nan
        with pytest.raises(SortInputError, match="NaN"):
            _sort_tier(engine, values, tier)

    @pytest.mark.parametrize("engine", ABISORT_ENGINES)
    @pytest.mark.parametrize("tier", ["reference", "vectorized"])
    def test_duplicate_ids_raise_on_both_tiers(self, engine, tier):
        values = _values([0.5, 0.25, 0.75, 0.125], ids=[1, 2, 2, 3])
        with pytest.raises(SortInputError):
            _sort_tier(engine, values, tier)

    def test_memoized_repeat_length_identical(self):
        """A long-lived engine replays the memoized op log on the second
        same-length sort; the result must still match a fresh reference."""
        rng = seeded_rng(11)
        engine = repro.engines.get("abisort")
        for _ in range(2):  # second iteration hits the op-log memo
            values = _random_values(rng, 192)
            vec = engine.sort(repro.SortRequest(values=values.copy()))
            ref = _sort_tier("abisort", values, "reference")
            _assert_identical(ref, vec)

    def test_memoized_path_still_raises_on_duplicate_ids(self):
        rng = seeded_rng(12)
        engine = repro.engines.get("abisort")
        good = _random_values(rng, 64)
        engine.sort(repro.SortRequest(values=good))  # primes the memo for n=64
        bad = good.copy()
        bad["id"][1] = bad["id"][0]
        with pytest.raises(SortInputError):
            engine.sort(repro.SortRequest(values=bad))


class TestNetworkEquivalence:
    @pytest.mark.parametrize("engine", NETWORK_ENGINES)
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_power_of_two_lengths(self, engine, n):
        rng = seeded_rng(n)
        values = _random_values(rng, n)
        _assert_identical(
            _sort_tier(engine, values, "reference"),
            _sort_tier(engine, values, "vectorized"),
            cache_replay=n <= 64,
        )

    @pytest.mark.parametrize("engine", NETWORK_ENGINES)
    @pytest.mark.parametrize("tier", ["reference", "vectorized"])
    def test_duplicate_composites_rejected_at_the_request(self, engine, tier):
        # Equal (key, id) pairs leave no strict order for a network (which
        # is not stable) to reproduce; the request rejects them up front.
        values = _values([0.5, 0.5, 0.25, 0.25], ids=[7, 7, 3, 3])
        with pytest.raises(SortInputError, match="unique"):
            _sort_tier(engine, values, tier)


class TestShardedEquivalence:
    @pytest.mark.parametrize("n", [5, 300, 1024])
    def test_sharded_identical_per_device(self, n):
        rng = seeded_rng(n)
        values = _random_values(rng, n)
        ref = _sort_tier("sharded-abisort", values, "reference")
        vec = _sort_tier("sharded-abisort", values, "vectorized")
        assert ref.values.tobytes() == vec.values.tobytes()
        assert _telemetry_dict(ref) == _telemetry_dict(vec)
        assert ref.cluster.merge_comparisons == vec.cluster.merge_comparisons
        assert ref.cluster.shard_sort_ms == vec.cluster.shard_sort_ms
        for dref, dvec in zip(ref.cluster.devices, vec.cluster.devices):
            assert dref.counters() == dvec.counters()


class TestSortedOutput:
    def test_matches_reference_sort(self):
        rng = seeded_rng(5)
        values = _random_values(rng, 333)
        out = sorted_output(values)
        assert out.tobytes() == reference_sort(values).tobytes()

    def test_out_of_contract_requests_are_rejected(self):
        cases = {
            "VALUE_DTYPE": np.arange(4, dtype=np.float32),
            "NaN": _values([0.5, np.nan]),
            "unique": _values([0.5, 0.5], ids=[1, 1]),
        }
        for match, values in cases.items():
            with pytest.raises(SortInputError, match=match):
                repro.SortRequest(values=values).to_values()

    def test_canonicalizes_signed_zero(self):
        values = _values([-0.0, 0.0], ids=[1, 0])
        out = sorted_output(values)
        assert out.tobytes() == reference_sort(values).tobytes()


class TestPlannerTierRule:
    def test_trace_requests_pin_reference(self):
        keys = seeded_rng(0).random(256, dtype=np.float32)
        request = repro.SortRequest(keys=keys, trace=True)
        assert resolve_request_tier(request) == "reference"
        assert repro.plan(request).exec_tier == "reference"

    def test_untraced_requests_default_vectorized(self):
        keys = seeded_rng(0).random(256, dtype=np.float32)
        plan = repro.plan(repro.SortRequest(keys=keys))
        assert plan.exec_tier == "vectorized"
