"""ShardPlanner: coverage, contiguity, balance, and degenerate inputs."""

from __future__ import annotations

import pytest

from repro.cluster import ShardPlanner
from repro.errors import SortInputError
from repro.stream.stream import PAIR_BYTES


class TestShardPlanner:
    @pytest.mark.parametrize("devices", (1, 2, 4, 7))
    @pytest.mark.parametrize("n", (1, 2, 3, 100, 128, 1000))
    @pytest.mark.parametrize("slices", (1, 2, 3))
    def test_plan_covers_input_contiguously(self, devices, n, slices):
        plan = ShardPlanner(devices, slices).plan(n)
        assert plan.n == n
        # Shards tile [0, n) in order with no gaps or overlaps.
        cursor = 0
        for shard in plan.shards:
            assert shard.start == cursor
            assert shard.stop > shard.start  # never empty
            cursor = shard.stop
        assert cursor == n

    def test_balanced_partitions(self):
        plan = ShardPlanner(4).plan(1000)
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        assert plan.used_devices == 4

    def test_slices_stay_on_their_device(self):
        plan = ShardPlanner(2, slices_per_device=3).plan(600)
        assert len(plan.shards) == 6
        assert [s.device for s in plan.shards] == [0, 0, 0, 1, 1, 1]
        assert all(len(plan.for_device(d)) == 3 for d in (0, 1))

    def test_tiny_inputs_use_fewer_devices(self):
        plan = ShardPlanner(7, slices_per_device=2).plan(3)
        assert len(plan.shards) == 3  # one element each, no empty shards
        assert plan.used_devices == 3

    def test_empty_input(self):
        plan = ShardPlanner(4).plan(0)
        assert plan.shards == ()
        assert plan.used_devices == 0

    def test_pipeline_tasks_move_each_shards_pairs(self):
        plan = ShardPlanner(2, slices_per_device=2).plan(1001)
        tasks = plan.pipeline_tasks([1.0, 2.0, 3.0, 4.0])
        assert [t.label for t in tasks] == ["shard0", "shard1", "shard2", "shard3"]
        assert [t.device for t in tasks] == [0, 0, 1, 1]
        assert [t.sort_ms for t in tasks] == [1.0, 2.0, 3.0, 4.0]
        for task, length in zip(tasks, plan.lengths()):
            assert task.upload_bytes == task.download_bytes == length * PAIR_BYTES

    def test_invalid_parameters(self):
        with pytest.raises(SortInputError):
            ShardPlanner(0)
        with pytest.raises(SortInputError):
            ShardPlanner(2, slices_per_device=0)
        with pytest.raises(SortInputError):
            ShardPlanner(2).plan(-1)
