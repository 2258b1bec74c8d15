"""Planner-driven compaction: plans, measured-vs-predicted, crash safety."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ModelError
from repro.store import (
    CompactionCostModel,
    MANIFEST_NAME,
    SortedStore,
    plan_compaction,
)
from repro.store.runs import read_run
from repro.workloads.generators import generate_keys


def _fill(store, rng, batches=6, size=512):
    for _ in range(batches):
        store.insert(rng.random(size, dtype=np.float32))


class TestPlanning:
    def test_plan_is_deterministic(self):
        lengths = [512] * 8
        a = plan_compaction(lengths)
        b = plan_compaction(lengths)
        assert (a.fan_in, a.devices) == (b.fan_in, b.devices)
        assert [c.cost_ms for c in a.candidates] == [c.cost_ms for c in b.candidates]

    def test_plan_needs_two_runs(self):
        with pytest.raises(ModelError):
            plan_compaction([512])
        with pytest.raises(ModelError):
            plan_compaction([0, 0, 512])

    def test_plan_respects_bounds(self):
        plan = plan_compaction([256] * 12, max_fan_in=3, max_devices=2)
        assert 2 <= plan.fan_in <= 3
        assert 1 <= plan.devices <= 2
        assert all(c.fan_in <= 3 and c.devices <= 2 for c in plan.candidates)

    def test_memory_budget_creates_interior_fan_in_optimum(self):
        # With a 1024-pair merge budget over 8 x 2048-pair runs, wide
        # merges thrash the per-run buffers (seeks per pass) while narrow
        # ones multiply passes: the model must prefer a middle fan-in.
        plan = plan_compaction([2048] * 8, memory_pairs=1024, max_fan_in=8)
        assert 2 < plan.fan_in < 8
        by_fan = {c.fan_in: c.cost_ms for c in plan.candidates if c.devices == 1}
        assert by_fan[plan.fan_in] < by_fan[2]
        assert by_fan[plan.fan_in] < by_fan[8]

    def test_exact_tie_picks_fewest_devices(self, tmp_path):
        # Five equal runs at fan-in 3 merge as groups of 3 and 2, then 2:
        # two or more devices give the same per-pass makespans, summed to
        # the same float, so the tie must resolve to the smallest cluster.
        store = SortedStore(tmp_path, engine="cpu-std")
        for seed in range(1, 6):
            store.insert(generate_keys("uniform", 3000, seed))
        plan = store.compaction_plan()
        tied = {
            c.devices: c.cost_ms
            for c in plan.candidates
            if c.fan_in == 3 and c.devices > 1
        }
        assert tied == dict.fromkeys((2, 3, 4), 1294.7465419999999)
        assert (plan.fan_in, plan.devices) == (3, 2)
        report = store.compact()
        assert report.makespan_ms == report.predicted_ms == plan.cost_ms

    def test_explain_stars_the_winner(self):
        text = plan_compaction([512] * 4).explain()
        assert "*" in text and "fan-in" in text

    def test_model_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            CompactionCostModel(memory_pairs=1)
        with pytest.raises(ModelError):
            CompactionCostModel().estimate([512, 512], fan_in=1)


class TestExecutionMatchesModel:
    @pytest.mark.parametrize("fan_in,devices", [(2, 1), (3, 2), (4, 4)])
    def test_measured_makespan_equals_prediction(
        self, tmp_path, rng, fan_in, devices
    ):
        store = SortedStore(tmp_path, engine="cpu-std")
        _fill(store, rng, batches=6, size=256)
        model = CompactionCostModel(
            host=store.config.host, memory_pairs=store.config.memory_pairs
        )
        predicted = model.estimate(
            [256] * 6, fan_in=fan_in, devices=devices
        ).cost_ms
        report = store.compact(fan_in=fan_in, devices=devices)
        assert report.predicted_ms == pytest.approx(predicted)
        assert report.makespan_ms == pytest.approx(predicted)

    @pytest.mark.parametrize("cache_pairs", [0, 1 << 22])
    def test_io_is_charged_once_whatever_the_cache_holds(
        self, tmp_path, rng, cache_pairs
    ):
        store = SortedStore(tmp_path, engine="cpu-std", cache_pairs=cache_pairs)
        _fill(store, rng, batches=2, size=1000)
        before = dataclasses.replace(store.disk)
        store.compact(fan_in=2, devices=1)
        charged = {
            name: getattr(store.disk, name) - getattr(before, name)
            for name in before.__dataclass_fields__
        }
        model = CompactionCostModel(
            host=store.config.host, memory_pairs=store.config.memory_pairs
        )
        assert charged == dataclasses.asdict(model.group_io([1000, 1000]))

    @pytest.mark.parametrize("cache_pairs", [0, 1 << 22])
    def test_compaction_counts_no_cache_lookups(self, tmp_path, rng, cache_pairs):
        store = SortedStore(tmp_path, engine="cpu-std", cache_pairs=cache_pairs)
        _fill(store, rng, batches=3, size=256)
        store.range(0.0, 1.0)
        before = store.stats
        store.compact(fan_in=2, devices=1)
        after = store.stats
        assert (after.cache_hits, after.cache_misses) == (
            before.cache_hits, before.cache_misses
        )

    def test_generations_stack_into_levels(self, tmp_path, rng):
        store = SortedStore(tmp_path, engine="cpu-std")
        _fill(store, rng, batches=4, size=128)
        assert {m.generation for m in store.manifest.runs} == {0}
        store.compact(fan_in=2, devices=1)
        (survivor,) = store.manifest.runs
        assert survivor.generation == 2  # two passes of pairwise merging
        assert survivor.n == 512

    def test_compact_below_two_runs_is_a_no_op(self, tmp_path, rng):
        store = SortedStore(tmp_path, engine="cpu-std")
        assert store.compact() is None
        store.insert(rng.random(64, dtype=np.float32))
        assert store.compact() is None
        assert store.run_count == 1

    def test_report_summary_reads(self, tmp_path, rng):
        store = SortedStore(tmp_path, engine="cpu-std")
        _fill(store, rng, batches=3, size=64)
        text = store.compact().summary()
        assert "compacted 3 -> 1 runs" in text
        assert "predicted" in text


class TestCrashSafety:
    def test_crash_mid_compaction_recovers_pre_compaction_state(
        self, tmp_path, rng, monkeypatch
    ):
        store = SortedStore(tmp_path, engine="cpu-std")
        _fill(store, rng, batches=5, size=128)
        before_manifest = (tmp_path / MANIFEST_NAME).read_bytes()
        before_runs = {
            m.name: read_run(tmp_path / m.name, m.n).tobytes()
            for m in store.manifest.runs
        }
        full_before = store.range(-1.0, 2.0)

        def crash(self, produced, consumed):
            raise OSError("simulated power loss before the manifest commit")

        monkeypatch.setattr(SortedStore, "_commit_compaction", crash)
        with pytest.raises(OSError, match="power loss"):
            store.compact(fan_in=2, devices=1)
        # The merge outputs were written before the crash point: the
        # directory now holds orphan run files the manifest never saw.
        on_disk = {p.name for p in tmp_path.glob("*.run")}
        assert on_disk > set(before_runs)
        assert (tmp_path / MANIFEST_NAME).read_bytes() == before_manifest

        monkeypatch.undo()
        reopened = SortedStore(tmp_path, engine="cpu-std")
        # Reopening sweeps the orphans and recovers the pre-compaction
        # run set bit-identically.
        assert {p.name for p in tmp_path.glob("*.run")} == set(before_runs)
        for meta in reopened.manifest.runs:
            assert read_run(tmp_path / meta.name, meta.n).tobytes() \
                == before_runs[meta.name]
        assert np.array_equal(reopened.range(-1.0, 2.0), full_before)
        # ...and the recovered store compacts cleanly afterwards.
        assert reopened.compact() is not None
        assert np.array_equal(reopened.range(-1.0, 2.0), full_before)
