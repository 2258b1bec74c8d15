"""SortedStore: ingest, queries, bit-identity, reopening, telemetry.

The acceptance property of the whole store layer lives here: a store's
query answers are bit-identical to one ``repro.sort`` of everything ever
ingested -- before compaction, after planner-driven compaction under
several (fan-in, devices) policies, and after closing and reopening the
directory.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.errors import SortInputError
from repro.cluster.sharded import merge_sorted_runs
from repro.store import MANIFEST_NAME, SortedStore, compaction
from repro.store import store as store_module
from repro.workloads.rng import seeded_rng

#: The acceptance matrix: at least three distinct compaction policies.
POLICIES = [(2, 1), (3, 2), (4, 4)]


def _reference(batches):
    """``repro.sort`` of the full ingested dataset, ids = ingest order."""
    keys = np.concatenate(batches)
    result = repro.sort(repro.SortRequest(keys=keys), engine="cpu-std")
    return result.values


def _fill(store, rng, batches=6, size=512):
    out = []
    for _ in range(batches):
        keys = rng.random(size, dtype=np.float32)
        out.append(keys)
        store.insert(keys)
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("fan_in,devices", POLICIES)
    def test_queries_match_one_big_sort_through_compaction_and_reopen(
        self, tmp_path, rng, fan_in, devices
    ):
        store = SortedStore(tmp_path, engine="cpu-std")
        ref = _reference(_fill(store, rng))

        def check(s):
            assert np.array_equal(s.range(-1.0, 2.0), ref)
            lo, hi = 0.25, 0.75
            window = ref[(ref["key"] >= lo) & (ref["key"] <= hi)]
            assert np.array_equal(s.range(lo, hi), window)
            assert np.array_equal(s.top_k(37), ref[:37])

        check(store)  # before compaction
        report = store.compact(fan_in=fan_in, devices=devices)
        assert report.fan_in == fan_in and report.devices == devices
        assert store.run_count == 1
        check(store)  # after compaction
        check(SortedStore(tmp_path, engine="cpu-std"))  # after reopen

    def test_planner_driven_compaction_preserves_identity(self, tmp_path, rng):
        store = SortedStore(tmp_path, engine="cpu-std")
        ref = _reference(_fill(store, rng, batches=5, size=256))
        assert store.compact() is not None  # planner picks the policy
        assert np.array_equal(store.range(-1.0, 2.0), ref)

    def test_cache_disabled_answers_identically(self, tmp_path, rng):
        cached = SortedStore(tmp_path / "a", engine="cpu-std")
        cold = SortedStore(tmp_path / "b", engine="cpu-std", cache_pairs=0)
        for store in (cached, cold):
            store_rng = seeded_rng(7)
            _fill(store, store_rng, batches=3, size=128)
        assert np.array_equal(cached.range(0.2, 0.8), cold.range(0.2, 0.8))
        assert np.array_equal(cached.top_k(10), cold.top_k(10))
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses > 0
        # the cold store paid real (modeled) disk traffic for its answers
        assert cold.stats.query_read_bytes > 0
        assert cached.stats.query_read_bytes == 0

    def test_duplicate_keys_keep_ingest_order_ids(self, tmp_path):
        store = SortedStore(tmp_path, engine="cpu-std")
        store.insert(np.full(16, 0.5, dtype=np.float32))
        store.insert(np.full(16, 0.5, dtype=np.float32))
        hits = store.range(0.5, 0.5)
        assert hits.shape[0] == 32
        assert list(hits["id"]) == list(range(32))  # (key, id) total order


class TestQueryEdges:
    def test_bad_ranges_raise(self, tmp_path):
        store = SortedStore(tmp_path)
        with pytest.raises(SortInputError):
            store.range(1.0, 0.0)
        with pytest.raises(SortInputError):
            store.range(float("nan"), 1.0)
        with pytest.raises(SortInputError):
            store.top_k(-1)

    def test_empty_store_and_empty_results(self, tmp_path):
        store = SortedStore(tmp_path)
        assert store.range(0.0, 1.0).shape[0] == 0
        assert store.top_k(5).shape[0] == 0
        store.insert(np.asarray([0.4, 0.6], dtype=np.float32), engine="cpu-std")
        assert store.range(0.9, 1.0).shape[0] == 0  # pruned by min/max
        assert store.top_k(0).shape[0] == 0

    def test_point_query_and_overshooting_k(self, tmp_path):
        store = SortedStore(tmp_path)
        store.insert(np.asarray([0.1, 0.5, 0.9], dtype=np.float32),
                     engine="cpu-std")
        point = store.range(0.5, 0.5)
        assert point.shape[0] == 1 and point["key"][0] == np.float32(0.5)
        assert store.top_k(100).shape[0] == 3

    def test_bounds_between_float32_keys_match_disk_bisect_and_mask(
        self, tmp_path, rng
    ):
        # Float64 bounds one float64 ulp inside a stored key: rounding them
        # to float32 lands *on* that key, so a cached search with rounded
        # needles would wrongly include it.
        keys = rng.standard_normal(4096).astype(np.float32)
        keys[:4] = [0.0, -0.0, np.inf, -np.inf]
        cached = SortedStore(tmp_path / "cached", engine="cpu-std")
        disk = SortedStore(tmp_path / "disk", engine="cpu-std", cache_pairs=0)
        for store in (cached, disk):
            for part in np.array_split(keys, 3):
                store.insert(part)
        ref = _reference([keys])
        wide = ref["key"].astype(np.float64)
        distinct = np.unique(wide[np.isfinite(wide)])
        for lo_key, hi_key in rng.choice(distinct, (40, 2)):
            lo_key, hi_key = sorted((lo_key, hi_key))
            lo = np.nextafter(lo_key, np.inf)
            hi = np.nextafter(hi_key, -np.inf)
            if lo > hi:
                continue
            want = ref[(wide >= lo) & (wide <= hi)]
            assert np.array_equal(cached.range(lo, hi), want)
            assert np.array_equal(disk.range(lo, hi), want)
        assert cached.stats.cache_misses == 0
        assert disk.stats.cache_hits == 0
        for lo, hi in ((1e39, np.inf), (-np.inf, -1e39), (-1e-46, 1e-46)):
            want = ref[(wide >= lo) & (wide <= hi)]
            assert np.array_equal(cached.range(lo, hi), want)
            assert np.array_equal(disk.range(lo, hi), want)

    def test_bounds_just_past_float32_range_warn_nothing(self, tmp_path):
        # Each bound rounds to float32's extreme and then steps past it to
        # inf, which numpy reports as an overflow unless told not to.
        top = np.finfo(np.float32).max
        keys = np.asarray([-np.inf, -top, 0.0, top, np.inf], dtype=np.float32)
        cached = SortedStore(tmp_path / "cached", engine="cpu-std")
        disk = SortedStore(tmp_path / "disk", engine="cpu-std", cache_pairs=0)
        lo = float(top) * (1 + 1e-9)
        for store in (cached, disk):
            store.insert(keys)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert store.range(lo, 2 * lo).shape[0] == 0
                assert store.range(-2 * lo, -lo).shape[0] == 0

    def test_insert_validation(self, tmp_path):
        store = SortedStore(tmp_path)
        assert store.insert(np.empty(0, dtype=np.float32)) is None
        with pytest.raises(SortInputError, match="1-D"):
            store.insert(np.zeros((2, 2), dtype=np.float32))


class TestInputContract:
    """One batch is checked at its request; batches meet only in merges."""

    @staticmethod
    def _files(path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    @pytest.mark.parametrize(
        "keys, ids, match",
        [
            ([0.3, 0.4, 0.5], [7, 8, 7], "unique"),
            ([0.3, float("nan")], None, "NaN"),
        ],
    )
    def test_rejected_insert_leaves_the_store_untouched(
        self, tmp_path, keys, ids, match
    ):
        store = SortedStore(tmp_path, engine="cpu-std")
        store.insert(np.asarray([0.1, 0.2], dtype=np.float32))
        before = self._files(tmp_path)
        with pytest.raises(SortInputError, match=match):
            store.insert(np.asarray(keys, dtype=np.float32), ids=ids)
        assert self._files(tmp_path) == before
        assert store.run_count == 1
        assert store.stats.ingested_pairs == 2

    def test_ids_reused_across_inserts_merge_like_the_reference(
        self, tmp_path, monkeypatch
    ):
        """Equal (key, id) composites from two inserts -- ``(+0.0, 1)``
        then ``(-0.0, 1)``, and ``(0.5, 2)`` twice -- go through the
        reference loser-tree merge: byte for byte, signed zeros included."""
        batches = [
            ([0.0, 0.5, 0.25, 1.0], [1, 2, 3, 4]),
            ([-0.0, 0.5, 0.75, -1.0], [1, 2, 5, 6]),
        ]

        def answers(path):
            handle = SortedStore(path, engine="cpu-std")
            for keys, ids in batches:
                handle.insert(np.asarray(keys, dtype=np.float32), ids=ids)
            out = [handle.range(-2.0, 2.0), handle.range(0.0, 0.5)]
            out += [handle.top_k(k) for k in (2, 3, 8)]
            handle.compact()
            out += [handle.range(-2.0, 2.0), handle.top_k(3)]
            return out

        vectorized = answers(tmp_path / "vectorized")
        with monkeypatch.context() as patch:
            for module in (store_module, compaction):
                patch.setattr(
                    module,
                    "merge_sorted_runs",
                    lambda runs, **kw: merge_sorted_runs(runs, trace=True),
                )
            reference = answers(tmp_path / "reference")
        assert [a.tobytes() for a in vectorized] == [
            a.tobytes() for a in reference
        ]
        everything = np.concatenate(
            [repro.make_values(keys, ids) for keys, ids in batches]
        )
        lexsorted = everything[np.lexsort((everything["id"], everything["key"]))]
        for whole in (vectorized[0], vectorized[5]):
            assert np.array_equal(whole["key"], lexsorted["key"])
            assert np.array_equal(whole["id"], lexsorted["id"])


class TestLifecycle:
    def test_reopen_recovers_exactly(self, tmp_path, rng):
        store = SortedStore(tmp_path, engine="cpu-std")
        _fill(store, rng, batches=3, size=64)
        runs_before = [(m.name, m.n, m.generation) for m in store.manifest.runs]
        reopened = SortedStore(tmp_path)
        assert [(m.name, m.n, m.generation) for m in reopened.manifest.runs] \
            == runs_before
        assert reopened.manifest.ingested_pairs == 192
        assert len(reopened) == 192

    def test_orphan_files_swept_on_open(self, tmp_path):
        store = SortedStore(tmp_path, engine="cpu-std")
        store.insert(np.asarray([0.5, 0.1], dtype=np.float32))
        (tmp_path / "run-999999-g0.run").write_bytes(b"\0" * 16)
        (tmp_path / (MANIFEST_NAME + ".tmp")).write_text("{}")
        reopened = SortedStore(tmp_path)
        on_disk = {p.name for p in tmp_path.iterdir()}
        assert "run-999999-g0.run" not in on_disk
        assert not any(name.endswith(".tmp") for name in on_disk)
        assert reopened.run_count == 1

    def test_config_and_overrides_are_exclusive(self, tmp_path):
        from repro.store import StoreConfig

        with pytest.raises(SortInputError):
            SortedStore(tmp_path, StoreConfig(), engine="cpu-std")


class TestStats:
    def test_telemetry_counts_the_whole_story(self, tmp_path, rng):
        store = SortedStore(tmp_path, engine="cpu-std", cache_pairs=0)
        _fill(store, rng, batches=4, size=256)
        store.range(0.2, 0.6)
        store.top_k(9)
        store.compact(fan_in=2, devices=1)
        s = store.stats
        assert s.runs == 1 and s.levels == 1 and s.live_pairs == 1024
        assert s.ingested_pairs == 1024 and s.ingested_runs == 4
        assert s.ingest_modeled_ms > 0
        assert s.queries == 2 and s.query_pairs > 0
        assert s.compactions == 1 and s.compaction_passes >= 1
        assert s.merge_comparisons > 0
        assert s.compaction_makespan_ms == pytest.approx(s.compaction_predicted_ms)
        # fan-in 2 over 4 equal runs rewrites every pair twice: ingest
        # (1x) + two merge passes (2x) = write amplification 3.
        assert s.write_amplification == pytest.approx(3.0)
        assert s.read_amplification >= 1.0
        assert s.seeks > 0
        payload = s.to_json()
        assert payload["runs"] == 1
        assert payload["write_amplification"] == pytest.approx(3.0)

    def test_stats_render_as_report(self, tmp_path, rng):
        from repro.analysis.cluster_report import format_store_stats

        store = SortedStore(tmp_path, engine="cpu-std")
        _fill(store, rng, batches=2, size=64)
        store.range(0.0, 1.0)
        store.compact()
        text = format_store_stats(store.stats)
        assert "runs:" in text and "ingest:" in text
        assert "compactions: 1" in text
        assert "write amplification" in text
