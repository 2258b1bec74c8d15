"""Sharded sort: bit-identical equivalence and engine/batch telemetry.

The load-bearing guarantee of the cluster layer: sharding is a *schedule*
decision, never an *answer* decision.  For any shard count the sharded
engine must return byte-for-byte the single-device engine's output, with
key/value (id) pairing intact -- including non-power-of-two, empty, and
tiny inputs -- and its schedule telemetry must satisfy the makespan/bubble
invariants.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.cluster import ShardedSorter, make_devices, merge_sorted_runs, sharded
from repro.cluster.device import Device
from repro.core.values import reference_sort
from repro.engines import SortRequest
from repro.errors import SortInputError
from repro.exec import stream_tier
from repro.stream.gpu_model import AGP_SYSTEM, GEFORCE_6800_ULTRA
from repro.workloads import records

SHARD_COUNTS = (1, 2, 4, 7)


def _request(n, rng, kind="random"):
    if kind == "duplicate-key":
        keys = rng.integers(0, 4, n).astype(np.float32)
    else:
        keys = rng.random(n, dtype=np.float32)
    return SortRequest(keys=keys)


class TestShardedEquivalence:
    @pytest.mark.parametrize("devices", SHARD_COUNTS)
    @pytest.mark.parametrize("n", (64, 100, 257, 1000))
    def test_bit_identical_to_single_device(self, devices, n, rng):
        request = _request(n, rng)
        single = repro.sort(request, engine="abisort")
        sharded = repro.sort(request, engine="sharded-abisort", devices=devices)
        # Bit-identical: same bytes, not merely the same key sequence.
        assert sharded.values.tobytes() == single.values.tobytes()

    @pytest.mark.parametrize("devices", SHARD_COUNTS)
    def test_key_value_pairing_survives_sharding(self, devices, rng):
        keys = rng.integers(0, 4, 200).astype(np.float32)  # heavy duplicates
        result = repro.sort(
            SortRequest(keys=keys), engine="sharded-abisort", devices=devices
        )
        assert np.array_equal(np.sort(result.ids), np.arange(200))
        assert np.array_equal(keys[result.ids], result.keys)
        # Stability: equal keys keep input (id) order.
        for k in np.unique(keys):
            ids = result.ids[result.keys == k]
            assert np.all(np.diff(ids.astype(np.int64)) > 0)

    @pytest.mark.parametrize("devices", SHARD_COUNTS)
    @pytest.mark.parametrize("n", (0, 1, 2, 3))
    def test_empty_and_tiny_inputs(self, devices, n, rng):
        request = _request(n, rng)
        single = repro.sort(request, engine="abisort")
        sharded = repro.sort(request, engine="sharded-abisort", devices=devices)
        assert sharded.values.tobytes() == single.values.tobytes()
        assert len(sharded) == n

    def test_sort_does_not_mutate_the_request(self, rng):
        request = _request(64, rng)
        repro.sort(request, engine="sharded-abisort", devices=4)
        assert request.devices is None  # the override must not leak back

    def test_inf_keys_at_uint32_id_ceiling(self):
        """Padding near the uint32 id ceiling must not displace real +inf
        rows: pad rows are dropped by id, not by slice position."""
        keys = np.array([np.inf, 1.0, np.inf, 0.5, 2.0, np.inf],
                        dtype=np.float32)
        ids = np.array([4294967291, 10, 4294967295, 11, 12, 4294967290],
                       dtype=np.uint32)
        values = repro.make_values(keys, ids)
        ref = reference_sort(values)
        for devices in (1, 3):
            result = ShardedSorter(devices).sort(values)
            assert np.array_equal(result.values, ref)

    def test_shard_padding_ids_cannot_collide(self):
        """A shard like [100, 300) pads to 256; its padding ids must not
        collide with the shard's own global ids 100..299."""
        n = 300
        keys = np.linspace(1.0, 0.0, n, dtype=np.float32)
        sorter = ShardedSorter(2, slices_per_device=1)
        result = sorter.sort(repro.make_values(keys))
        assert np.array_equal(
            result.values, reference_sort(repro.make_values(keys))
        )

    def test_direct_sorter_on_other_hardware(self, medium_values):
        devices = make_devices(3, gpu=GEFORCE_6800_ULTRA, host=AGP_SYSTEM)
        sorter = ShardedSorter(devices, slices_per_device=2, host=AGP_SYSTEM)
        result = sorter.sort(medium_values)
        assert np.array_equal(result.values, reference_sort(medium_values))
        assert result.plan.used_devices == 3
        # AGP readback dominates the transfer events.
        down = sum(e.duration_ms for e in result.schedule.events
                   if e.stage == "download")
        up = sum(e.duration_ms for e in result.schedule.events
                 if e.stage == "upload")
        assert down > up


class TestResultIsAValue:
    def test_a_later_sort_leaves_an_earlier_result_unchanged(self, rng):
        devices = make_devices(2)
        sorter = ShardedSorter(devices, slices_per_device=2)
        first = sorter.sort(repro.make_values(rng.random(300, dtype=np.float32)))
        machines = list(first.machines)
        counters = [m.counters() for m in machines]
        ops = [list(m.ops) for m in machines]
        sorter.sort(repro.make_values(rng.random(5000, dtype=np.float32)))
        assert first.machines == machines
        assert [m.counters() for m in first.machines] == counters
        assert [list(m.ops) for m in first.machines] == ops
        assert devices == make_devices(2)  # the sort left its devices alone

    def test_a_shard_under_two_pairs_has_no_machine(self):
        values = repro.make_values(np.array([3.0, 1.0, 2.0], dtype=np.float32))
        result = ShardedSorter(3).sort(values)
        assert result.machines == [None, None, None]
        assert result.shard_sort_ms == [0.0, 0.0, 0.0]
        assert np.array_equal(result.values, reference_sort(values))


class TestRepeatedRecordAcrossShards:
    """A record repeated so that its copies land in different shards breaks
    the unique-id contract; the multi-shard path must reject it, as the
    single-shard path does, instead of merging raw shards out of order."""

    @pytest.mark.parametrize("devices, slices", [(1, 1), (2, 1), (4, 2)])
    def test_raises_like_a_single_shard(self, devices, slices, rng):
        half = repro.make_values(rng.random(8, dtype=np.float32))
        values = np.concatenate([half, half])
        sorter = ShardedSorter(devices, slices_per_device=slices)
        with pytest.raises(SortInputError, match="unique"):
            sorter.sort(values)


class TestUnsortedShardPath:
    """The default path with two or more shards sorts no shard: it takes
    each shard's machine from the stream tier's memo, pads a shard only
    on a memo miss, and costs each distinct (memo run, GPU) once."""

    @pytest.fixture
    def pads(self, monkeypatch) -> list[int]:
        """An empty memo, and the lengths padded wherever the name is bound."""
        monkeypatch.setattr(stream_tier, "_RUNS", {})
        lengths: list[int] = []
        real = records.pad_to_power_of_two

        def pad_to_power_of_two(values):
            lengths.append(values.shape[0])
            return real(values)

        for module in (records, stream_tier, sharded):
            if hasattr(module, "pad_to_power_of_two"):
                monkeypatch.setattr(module, "pad_to_power_of_two", pad_to_power_of_two)
        return lengths

    @staticmethod
    def _telemetry(result) -> dict:
        d = dataclasses.asdict(result.telemetry)
        d.pop("wall_time_s")  # measured, the one field allowed to differ
        return d

    def test_cold_power_of_two_shards_match_trace_and_leave_input(self, pads, rng):
        values = repro.make_values(rng.random(4096, dtype=np.float32))
        before = values.tobytes()
        request = SortRequest(values=values)
        got = repro.sort(request, engine="sharded-abisort", devices=4)
        assert values.tobytes() == before
        (length,) = {s.stop - s.start for s in got.cluster.plan.shards}
        assert len(got.cluster.plan.shards) > 1 and length & (length - 1) == 0
        assert pads == [length]  # the first shard misses; the rest hit
        want = repro.sort(
            SortRequest(values=values, trace=True),
            engine="sharded-abisort",
            devices=4,
        )
        assert got.values.tobytes() == want.values.tobytes()
        assert got.cluster.shard_sort_ms == want.cluster.shard_sort_ms
        assert self._telemetry(got) == self._telemetry(want)

    def test_memo_hit_pads_nothing(self, pads, rng):
        sorter = ShardedSorter(4)
        sorter.sort(repro.make_values(rng.random(3000, dtype=np.float32)))
        primed = len(pads)
        assert primed == 1  # shards of 750 all pad to 1024
        values = repro.make_values(rng.random(3000, dtype=np.float32))
        result = sorter.sort(values)
        assert len(pads) == primed
        assert np.array_equal(result.values, reference_sort(values))

    def test_gpus_differing_in_one_kernel_cost_differently(self, rng):
        base = GEFORCE_6800_ULTRA
        name = next(iter(base.kernel_cycles))
        cycles = dict(base.kernel_cycles, **{name: base.kernel_cycles[name] + 1})
        other = dataclasses.replace(base, kernel_cycles=cycles)
        link = make_devices(1)[0].link
        devices = [
            Device(index=0, gpu=base, link=link),
            Device(index=1, gpu=other, link=link),
            Device(index=2, gpu=base, link=link),
        ]
        values = repro.make_values(rng.random(3072, dtype=np.float32))
        got = ShardedSorter(devices).sort(values)
        ms = got.shard_sort_ms
        assert ms[0] == ms[2] != ms[1]
        want = ShardedSorter(devices, trace=True).sort(values)
        assert ms == want.shard_sort_ms


class TestTrivialReports:
    def test_format_sharded_result_on_trivial_input(self):
        from repro.analysis.cluster_report import format_sharded_result

        one = ShardedSorter(2).sort(
            repro.make_values(np.array([1.0], dtype=np.float32))
        )
        text = format_sharded_result(one)  # must not raise
        assert "1 pairs in 1 shards" in text

    def test_cli_cluster_trivial_inputs(self, capsys):
        from repro.__main__ import main

        for n in (0, 1):
            assert main(["cluster", "--n", str(n)]) == 0
        assert "nothing to schedule" in capsys.readouterr().out


class TestMergeSortedRuns:
    def test_merge_matches_reference(self, rng):
        values = repro.make_values(rng.random(500, dtype=np.float32))
        ref = reference_sort(values)
        runs = [reference_sort(values[:123]), reference_sort(values[123:321]),
                reference_sort(values[321:])]
        merged, comparisons = merge_sorted_runs(runs)
        assert np.array_equal(merged, ref)
        assert comparisons > 0

    def test_merge_degenerate(self):
        empty = np.empty(0, dtype=repro.VALUE_DTYPE)
        merged, comparisons = merge_sorted_runs([empty, empty])
        assert merged.shape == (0,) and comparisons == 0
        one = repro.make_values(np.array([1.0], dtype=np.float32))
        merged, comparisons = merge_sorted_runs([one, empty])
        assert np.array_equal(merged, one) and comparisons == 0


class TestClusterTelemetry:
    @pytest.mark.parametrize("devices", SHARD_COUNTS)
    def test_scheduler_invariants_through_engine(self, devices, rng):
        result = repro.sort(
            _request(512, rng), engine="sharded-abisort", devices=devices
        )
        t = result.telemetry
        schedule = result.cluster.schedule
        # Issue invariants: makespan <= sum of per-device times (+ merge),
        # and no negative bubble time.
        assert t.pipeline_bubble_ms >= 0.0
        assert schedule.device_finish_ms <= schedule.total_device_ms + 1e-9
        assert t.modeled_makespan_ms == pytest.approx(
            schedule.device_finish_ms + result.cluster.schedule.merge_ms
        )
        assert t.devices == min(devices, 512)
        # Whole input crosses each link once per direction.
        assert t.transfer_bytes == 2 * 512 * 8
        assert t.modeled_gpu_ms > 0.0
        assert t.stream_ops > 0 and t.bytes_moved > 0

    def test_per_device_op_logs(self, rng):
        sorter = ShardedSorter(make_devices(2), slices_per_device=1)
        result = sorter.sort(repro.make_values(rng.random(256, dtype=np.float32)))
        # Each device ran exactly its shard: both logged work, separately.
        assert [s.device for s in result.plan.shards] == [0, 1]
        for machine in result.machines:
            assert machine.counters().stream_ops > 0


class TestBatchFastPath:
    def test_results_identical_to_sequential(self, rng):
        requests = [
            SortRequest(keys=rng.random(300, dtype=np.float32))
            for _ in range(5)
        ]
        fast = repro.sort_batch(requests, engine="abisort", devices=3)
        slow = repro.sort_batch(requests, engine="abisort")
        for a, b in zip(fast.results, slow.results):
            assert a.values.tobytes() == b.values.tobytes()
        assert fast.telemetry.devices == 3
        assert fast.schedule is not None
        # Concurrent schedule beats back-to-back execution.
        assert (
            fast.telemetry.modeled_makespan_ms
            < slow.telemetry.modeled_gpu_ms + 1e-9
        )

    def test_batch_invariants(self, rng):
        requests = [
            SortRequest(keys=rng.random(128, dtype=np.float32))
            for _ in range(7)
        ]
        batch = repro.sort_batch(requests, engine="abisort", devices=4)
        t = batch.telemetry
        assert t.pipeline_bubble_ms >= 0.0
        assert t.modeled_makespan_ms <= batch.schedule.total_device_ms + 1e-9
        assert t.transfer_bytes == 2 * 7 * 128 * 8
        assert t.requests == 7

    def test_lpt_placement_isolates_a_huge_request(self, rng):
        """Size-aware placement: the big request gets its own device while
        round-robin would have queued small ones behind it."""
        sizes = (4096, 64, 64, 64, 64, 64)
        requests = [
            SortRequest(keys=rng.random(n, dtype=np.float32)) for n in sizes
        ]
        batch = repro.sort_batch(requests, engine="abisort", devices=2)
        by_task = {
            e.task: e.device for e in batch.schedule.events if e.stage == "sort"
        }
        huge_device = by_task["req0"]
        assert all(
            device != huge_device
            for task, device in by_task.items()
            if task != "req0"
        )
        # The per-request outputs are placement independent.
        for req, res in zip(requests, batch.results):
            assert np.array_equal(res.values, reference_sort(req.to_values()))

    def test_cpu_engine_batch_moves_no_bytes(self, rng):
        requests = [
            SortRequest(keys=rng.random(64, dtype=np.float32))
            for _ in range(4)
        ]
        batch = repro.sort_batch(requests, engine="cpu-quicksort", devices=2)
        assert batch.telemetry.transfer_bytes == 0
        for res, req in zip(batch.results, requests):
            assert np.array_equal(res.values, reference_sort(req.to_values()))
