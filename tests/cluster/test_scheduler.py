"""Scheduler and TransferLink: overlap semantics and telemetry invariants."""

from __future__ import annotations

import pytest

from repro.cluster import PipelineTask, Scheduler, lpt, make_devices
from repro.errors import ModelError
from repro.stream.gpu_model import AGP_SYSTEM, PCIE_SYSTEM, HostSystem
from repro.stream.transfer import AGP_LINK, PCIE_LINK, TransferLink, link_for_host


class TestTransferLink:
    def test_round_trips_match_paper(self):
        # Section 8: ~100 ms AGP, ~20 ms PCIe for 2^20 pairs.
        assert AGP_LINK.round_trip_ms(1 << 20) == pytest.approx(100.0, rel=0.05)
        assert PCIE_LINK.round_trip_ms(1 << 20) == pytest.approx(20.0, rel=0.05)

    def test_agp_readback_is_the_slow_direction(self):
        nbytes = 1 << 23
        assert AGP_LINK.download_ms(nbytes) > AGP_LINK.upload_ms(nbytes)

    def test_link_for_host_known_and_fallback(self):
        assert link_for_host(AGP_SYSTEM) is AGP_LINK
        assert link_for_host(PCIE_SYSTEM) is PCIE_LINK
        other = HostSystem(
            name="other", cpu_name="cpu", cpu_op_ns=10.0,
            bus_name="some-bus", bus_roundtrip_gb_s=1.0,
        )
        link = link_for_host(other)
        assert link.up_gb_s == link.down_gb_s == 1.0
        # The symmetric fallback preserves the round-trip time.
        assert link.round_trip_ms(1 << 20) == pytest.approx(
            2 * (1 << 20) * 8 / 1e9 * 1e3
        )

    def test_zero_and_invalid(self):
        assert PCIE_LINK.upload_ms(0) == 0.0
        with pytest.raises(ModelError):
            TransferLink(name="bad", up_gb_s=0.0, down_gb_s=1.0)
        with pytest.raises(ModelError):
            PCIE_LINK.upload_ms(-1)


def _tasks(device_index, count, up=800_000, sort_ms=5.0, down=800_000):
    # 800 KB over PCIe is ~0.95 ms per direction -- shorter than the 5 ms
    # sorts, so the default pipeline is compute bound.
    return [
        PipelineTask(f"t{i}", device_index, up, sort_ms, down)
        for i in range(count)
    ]


class TestScheduler:
    def test_single_task_overlap_equals_serial(self):
        """One task has nothing to overlap with: both modes agree."""
        devices = make_devices(1)
        tasks = _tasks(0, 1)
        on = Scheduler(devices, overlap=True).run(tasks)
        off = Scheduler(devices, overlap=False).run(tasks)
        assert on.makespan_ms == pytest.approx(off.makespan_ms)

    def test_overlap_hides_interior_transfers(self):
        devices = make_devices(1)
        tasks = _tasks(0, 4)
        link = devices[0].link
        up = link.upload_ms(800_000)
        down = link.download_ms(800_000)
        on = Scheduler(devices, overlap=True).run(tasks)
        off = Scheduler(devices, overlap=False).run(tasks)
        assert off.makespan_ms == pytest.approx(4 * (up + 5.0 + down))
        assert on.makespan_ms < off.makespan_ms
        # Compute-bound (sort > transfer): only the pipeline fill/drain shows.
        assert on.makespan_ms == pytest.approx(up + 4 * 5.0 + down)
        assert on.bubble_ms == pytest.approx(0.0, abs=1e-12)

    def test_transfer_bound_pipeline_has_bubbles(self):
        """When uploads outlast sorts, the compute engine starves."""
        devices = make_devices(1)
        tasks = _tasks(0, 4, up=80_000_000, sort_ms=1.0, down=1_000)
        schedule = Scheduler(devices, overlap=True).run(tasks)
        assert schedule.bubble_ms > 0.0
        up = devices[0].link.upload_ms(80_000_000)
        # Compute waits for each next upload: 3 gaps of (up - sort).
        assert schedule.bubble_ms == pytest.approx(3 * (up - 1.0))

    @pytest.mark.parametrize("overlap", (True, False))
    @pytest.mark.parametrize("count", (1, 3, 8))
    def test_telemetry_invariants(self, overlap, count):
        """The issue's invariants: makespan <= sum of per-device times
        (plus the host merge), and bubbles are never negative."""
        devices = make_devices(3)
        tasks = []
        for i in range(count):
            tasks.extend(_tasks(i % 3, 1, sort_ms=2.0 + i))
        schedule = Scheduler(devices, overlap=overlap).run(tasks, merge_ms=1.5)
        assert schedule.device_finish_ms <= schedule.total_device_ms + 1e-9
        assert schedule.makespan_ms == pytest.approx(
            schedule.device_finish_ms + 1.5
        )
        for timeline in schedule.timelines.values():
            assert timeline.bubble_ms >= 0.0
            assert timeline.span_ms <= schedule.device_finish_ms + 1e-9

    def test_devices_run_concurrently(self):
        devices = make_devices(4)
        tasks = []
        for d in range(4):
            tasks.extend(_tasks(d, 1))
        schedule = Scheduler(devices, overlap=True).run(tasks)
        one = Scheduler(make_devices(1), overlap=True).run(_tasks(0, 4))
        assert schedule.makespan_ms < one.makespan_ms
        assert len(schedule.timelines) == 4

    def test_unknown_device_rejected(self):
        devices = make_devices(2)
        with pytest.raises(ModelError):
            Scheduler(devices).run(_tasks(5, 1))

    def test_lpt_assignment_balances_mixed_sizes(self):
        scheduler = Scheduler(make_devices(2))
        # Round-robin would pair the two heavy tasks on device 0; LPT puts
        # one heavy task per device and balances the rest by load.
        assignment = scheduler.assign_lpt([10.0, 1.0, 10.0, 1.0])
        assert assignment[0] != assignment[2]
        loads = {0: 0.0, 1: 0.0}
        for weight, device in zip([10.0, 1.0, 10.0, 1.0], assignment):
            loads[device] += weight
        assert loads[0] == loads[1] == 11.0

    def test_lpt_is_deterministic_on_ties(self):
        scheduler = Scheduler(make_devices(3))
        assert scheduler.assign_lpt([2.0, 2.0, 2.0]) == [0, 1, 2]
        assert scheduler.assign_lpt([]) == []

    def test_schedule_transfer_and_serialized_properties(self):
        devices = make_devices(1)
        schedule = Scheduler(devices).run(_tasks(0, 2))
        assert schedule.transfer_ms == pytest.approx(sum(
            e.duration_ms for e in schedule.events
            if e.stage in ("upload", "download")
        ))
        assert schedule.serialized_ms == pytest.approx(
            sum(e.duration_ms for e in schedule.events)
        )
        assert schedule.serialized_ms > schedule.transfer_ms


class TestLpt:
    def test_loads_sum_in_input_order(self):
        # In LPT order 1e16 + 1.0 rounds back to 1e16 twice; the input
        # order adds the two small weights first, which every caller's
        # modeled makespan depends on.
        assignment, loads = lpt([1.0, 1.0, 1e16], [0])
        assert assignment == [0, 0, 0]
        assert loads == {0: 1e16 + 2}
        assert 1e16 + 2 != 1e16 + 1.0 + 1.0

    def test_weight_ties_keep_input_order(self):
        assert lpt([2.0, 2.0, 2.0], range(3)) == (
            [0, 1, 2], {0: 2.0, 1: 2.0, 2: 2.0}
        )
        assert lpt([1.0, 3.0, 1.0, 1.0], range(2)) == (
            [1, 0, 1, 1], {0: 3.0, 1: 3.0}
        )

    def test_empty_input(self):
        assert lpt([], range(2)) == ([], {0: 0.0, 1: 0.0})

    def test_scheduler_delegates_to_lpt(self):
        weights = [4.0, 7.0, 1.0, 3.0, 3.0]
        scheduler = Scheduler(make_devices(2))
        assert scheduler.assign_lpt(weights) == lpt(weights, range(2))[0]
