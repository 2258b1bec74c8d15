"""Sharded GPU-ABiSort: plan, pipeline, sort per device, k-way merge.

The scale-out sort the cluster subsystem exists for:

1. :class:`~repro.cluster.planner.ShardPlanner` partitions the input into
   contiguous shards (one or more pipeline slices per device);
2. every shard's stream machine is logged on the shard's device (so op
   logs and counters stay per device).  With ``trace=True``, or a single
   non-empty shard, :func:`repro.exec.stream_tier.sort_on_stream` sorts
   the shard and returns its machine.  Otherwise no shard is sorted:
   the machine comes from the stream tier's memo
   (:func:`~repro.exec.stream_tier.counting_machine`), because the merge
   of step 4 is the sorted runs' only reader and sorts the union anyway.
   The shard goes to the memo unpadded and uncopied (only a miss pads a
   private copy), and shards sharing a memo entry and a device GPU are
   costed once per sort;
3. the :class:`~repro.cluster.scheduler.Scheduler` lays the shards'
   upload/sort/download stages onto the devices' modeled resources,
   overlapping transfers with compute (Section 7 generalised to N devices);
4. the shard runs are recombined by :func:`merge_sorted_runs` under the
   same (key, id) total order the devices sort by: a
   :class:`repro.hybrid.external.LoserTree` merge of the sorted runs
   with ``trace=True``, else one SIMD sort of the union of the raw
   shards' composite keys, which plays the same comparison count in
   closed form.

Because the total order is identical at every step, the output is
**bit-identical** to a single-device GPU-ABiSort of the whole input, for
any shard count -- sharding changes only the modeled schedule, never the
answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import ABiSortConfig
from repro.cluster.device import Device, make_devices
from repro.cluster.planner import ShardPlan, ShardPlanner
from repro.cluster.scheduler import ClusterSchedule, Scheduler
from repro.errors import SortInputError
from repro.exec import ReferenceBackend, VectorizedBackend
from repro.exec.stream_tier import counting_machine, modeled_cost, sort_on_stream
# Unused here, but the stackbench layer tracer wraps this module attribute.
from repro.exec.stream_tier import counting_sort_run  # noqa: F401
from repro.stream.gpu_model import PCIE_SYSTEM, HostSystem, cpu_sort_time_ms
from repro.stream.mapping2d import Mapping2D, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE

__all__ = ["ShardedSorter", "ShardedSortResult", "merge_sorted_runs"]


def merge_sorted_runs(
    runs: list[np.ndarray], trace: bool = False
) -> tuple[np.ndarray, int]:
    """K-way merge of sorted ``VALUE_DTYPE`` runs, loser-tree semantics.

    Returns the merged array and the number of comparisons the loser
    tree plays (~``n log2 k``, the counted cost of the host-side merge
    stage).  Empty runs are skipped; a single run returns a copy with
    zero comparisons.  ``trace=True`` plays every match on the reference
    backend, the default merges with numpy (see :mod:`repro.exec`) -- the
    merged bytes and the comparison count are identical either way.  The
    numpy merge is one composite sort of the union, so under the (key, id)
    contract it also sorts two or more *unsorted* runs (see
    :meth:`~repro.exec.vectorized.VectorizedBackend.merge_runs`).
    """
    backend = ReferenceBackend if trace else VectorizedBackend
    return backend().merge_runs(runs)


@dataclass
class ShardedSortResult:
    """Everything one sharded sort produced."""

    values: np.ndarray
    plan: ShardPlan
    schedule: ClusterSchedule
    devices: list[Device]
    #: Modeled sort milliseconds per shard, in shard order.
    shard_sort_ms: list[float] = field(default_factory=list)
    merge_comparisons: int = 0
    merge_modeled_ms: float = 0.0

    @property
    def makespan_ms(self) -> float:
        """Critical-path completion time, merge included."""
        return self.schedule.makespan_ms


class ShardedSorter:
    """Sort one request across a device cluster with transfer overlap.

    Parameters
    ----------
    devices:
        A device list (see :func:`repro.cluster.device.make_devices`) or a
        device count (builds the default GeForce 7800 GTX / PCIe cluster).
    config:
        The GPU-ABiSort variant each device runs.
    slices_per_device:
        Pipeline depth per device (2 enables intra-device transfer overlap;
        see :class:`~repro.cluster.planner.ShardPlanner`).
    overlap:
        Overlap upload/sort/download across a device's pipeline resources
        (the Section-7 trick); ``False`` serializes every stage.
    mapping:
        The 1D->2D mapping the per-device cost model charges reads under.
    host:
        The CPU side: prices the final merge at ``cpu_op_ns`` per
        comparison.
    trace:
        Run every shard sort and the host-side merge on the reference
        interpreters (see :mod:`repro.exec`) instead of the stream tier's
        memo and the numpy merge.  Bit- and telemetry-identical.  Without
        it, two or more shards are neither sorted nor copied: each takes
        its machine from the memo, and the merge sorts their union once.
    """

    def __init__(
        self,
        devices: list[Device] | int = 2,
        *,
        config: ABiSortConfig | None = None,
        slices_per_device: int = 1,
        overlap: bool = True,
        mapping: Mapping2D | None = None,
        host: HostSystem = PCIE_SYSTEM,
        trace: bool = False,
    ):
        if isinstance(devices, int):
            devices = make_devices(devices, host=host)
        if not devices:
            raise SortInputError("sharded sorter needs at least one device")
        self.devices = devices
        self.config = config or ABiSortConfig()
        self.planner = ShardPlanner(len(devices), slices_per_device)
        self.overlap = overlap
        self.mapping = mapping or ZOrderMapping()
        self.host = host
        self.trace = trace

    def sort(self, values: np.ndarray) -> ShardedSortResult:
        """Sort a ``VALUE_DTYPE`` array of any length across the cluster.

        ``values`` is only read: the result holds fresh arrays.
        """
        if values.dtype != VALUE_DTYPE:
            raise SortInputError(
                f"expected VALUE_DTYPE input, got {values.dtype}; "
                f"use repro.make_values"
            )
        for device in self.devices:
            device.reset()
        n = values.shape[0]
        plan = self.planner.plan(n)
        if n <= 1:
            return ShardedSortResult(
                values=values.copy(),
                plan=plan,
                schedule=ClusterSchedule(overlap=self.overlap),
                devices=self.devices,
                # Keep one entry per planned shard (a 1-element plan still
                # has one shard) so reports can index shard_sort_ms safely.
                shard_sort_ms=[0.0] * len(plan.shards),
            )

        # The vectorized merge is one sort of the union, so with two or
        # more shards (the planner makes none empty) it is the only sort a
        # shard needs: each shard's machine comes from the memo, unsorted.
        unsorted = not self.trace and len(plan.shards) > 1
        runs: list[np.ndarray] = []
        shard_sort_ms: list[float] = []
        # Modeled ms per (memo run, device GPU): equal shards share a run.
        costs: dict[tuple[int, int], float] = {}
        for shard in plan.shards:
            chunk = values[shard.start : shard.stop]
            sort_ms = 0.0
            if chunk.shape[0] >= 2:
                device = self.devices[shard.device]
                if unsorted:
                    machine = counting_machine(self.config, chunk)
                else:
                    chunk, machine = sort_on_stream(
                        self.config, chunk, trace=self.trace
                    )
                device.machines.append(machine)
                run = getattr(machine, "run", None)
                key = (id(run), id(device.gpu))
                if run is None or key not in costs:
                    cost = modeled_cost(machine, device.gpu, self.mapping)
                    costs[key] = cost.total_ms
                sort_ms = costs[key]
            runs.append(chunk)
            shard_sort_ms.append(sort_ms)

        if len(runs) > 1:
            merged, comparisons = merge_sorted_runs(runs, trace=self.trace)
        else:
            merged, comparisons = runs[0], 0
        merge_ms = cpu_sort_time_ms(comparisons, self.host)

        scheduler = Scheduler(self.devices, overlap=self.overlap)
        schedule = scheduler.run(
            plan.pipeline_tasks(shard_sort_ms), merge_ms=merge_ms
        )
        return ShardedSortResult(
            values=merged,
            plan=plan,
            schedule=schedule,
            devices=self.devices,
            shard_sort_ms=shard_sort_ms,
            merge_comparisons=comparisons,
            merge_modeled_ms=merge_ms,
        )
