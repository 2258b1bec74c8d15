"""Sharded GPU-ABiSort: plan, pipeline, sort per device, k-way merge.

The scale-out sort the cluster subsystem exists for:

1. :class:`~repro.cluster.planner.ShardPlanner` partitions the input into
   contiguous shards (one or more pipeline slices per device);
2. every shard runs ``ABiSortConfig()`` and its stream machine goes on
   the result (:attr:`ShardedSortResult.machines`), never on a device, so
   a result keeps describing its own sort.  With ``trace=True``, or a
   single non-empty shard,
   :func:`repro.exec.stream_tier.sort_on_stream` sorts the shard and
   returns its machine.  Otherwise no shard is sorted: the machine comes
   from the stream tier's memo
   (:func:`~repro.exec.stream_tier.counting_machine`), because the merge
   of step 4 is the sorted runs' only reader and sorts the union anyway.
   The shard goes to the memo unpadded and uncopied (only a miss pads a
   private copy), and shards sharing a memo entry and a device GPU are
   costed once per sort;
3. :func:`shard_schedule` lays the shards' upload/sort/download stages
   onto the devices' modeled resources, overlapping transfers with
   compute (Section 7 generalised to N devices), and prices the host
   merge after the last download;
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

from dataclasses import dataclass

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
from repro.stream.context import StreamMachine
from repro.stream.gpu_model import PCIE_SYSTEM, HostSystem, cpu_sort_time_ms
from repro.stream.mapping2d import Mapping2D, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE

__all__ = [
    "ShardedSorter",
    "ShardedSortResult",
    "merge_sorted_runs",
    "shard_schedule",
]

#: The program every shard runs: the ``abisort`` engine's, whose fitted
#: curve :class:`~repro.planner.models.ShardedCostModel` prices shards with.
_PROGRAM = ABiSortConfig()


def merge_sorted_runs(
    runs: list[np.ndarray], trace: bool = False
) -> tuple[np.ndarray, int]:
    """K-way merge of sorted ``VALUE_DTYPE`` runs, loser-tree semantics.

    Returns ``(merged, comparisons)``: ``merged`` ascends under the
    (key, id) total order, and ``comparisons`` is what a
    :class:`~repro.hybrid.external.LoserTree` plays (``K-1`` build
    matches plus ``log2 K`` per element, ``K`` the tree's power-of-two
    width over the non-empty runs).  Empty runs are skipped; a single run
    returns a copy with zero comparisons.  ``trace=True`` plays every
    match on the reference backend, the default merges with numpy (see
    :mod:`repro.exec`); the bytes and the count are identical either way.
    The numpy merge is one composite sort of the union, so under the
    (key, id) contract it also sorts two or more *unsorted* runs; runs
    that share a record must be sorted (see
    :meth:`~repro.exec.vectorized.VectorizedBackend.merge_runs`).
    """
    backend = ReferenceBackend if trace else VectorizedBackend
    return backend().merge_runs(runs)


def shard_schedule(
    plan: ShardPlan,
    sort_ms: list[float],
    devices: list[Device],
    host: HostSystem,
) -> tuple[ClusterSchedule, int]:
    """``(schedule, merge comparisons)`` of a shard plan: the one rule.

    The shards' stages (``sort_ms`` in shard order) run overlapped on
    ``devices``; the host merge follows the last download, priced at the
    loser tree's closed-form comparison count.  :class:`ShardedSorter`
    calls it with measured shard costs, the planner's
    :class:`~repro.planner.models.ShardedCostModel` with predicted ones.
    """
    # Late import: repro.analysis pulls in cluster reporting, which
    # imports this module.
    from repro.analysis.complexity import loser_tree_merge_comparisons

    comparisons = loser_tree_merge_comparisons(plan.n, len(plan.shards))
    schedule = Scheduler(devices).run(
        plan.pipeline_tasks(sort_ms),
        merge_ms=cpu_sort_time_ms(comparisons, host),
    )
    return schedule, comparisons


@dataclass(frozen=True)
class ShardedSortResult:
    """Everything one sharded sort produced."""

    values: np.ndarray
    plan: ShardPlan
    schedule: ClusterSchedule
    #: Modeled sort milliseconds per shard, in shard order.
    shard_sort_ms: list[float]
    #: The stream machine of each shard, in shard order (``None`` for a
    #: shard of fewer than 2 pairs); ``plan.shards[i].device`` ran it.
    machines: list[StreamMachine | None]
    merge_comparisons: int = 0


class ShardedSorter:
    """Sort one request across a device cluster with transfer overlap.

    Parameters
    ----------
    devices:
        A device list (see :func:`repro.cluster.device.make_devices`) or a
        device count (builds the default GeForce 7800 GTX / PCIe cluster).
    slices_per_device:
        Pipeline depth per device (2 enables intra-device transfer overlap;
        see :class:`~repro.cluster.planner.ShardPlanner`).
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

    A sort changes neither the sorter nor its devices.
    """

    def __init__(
        self,
        devices: list[Device] | int = 2,
        *,
        slices_per_device: int = 1,
        mapping: Mapping2D | None = None,
        host: HostSystem = PCIE_SYSTEM,
        trace: bool = False,
    ):
        if isinstance(devices, int):
            devices = make_devices(devices, host=host)
        if not devices:
            raise SortInputError("sharded sorter needs at least one device")
        self.devices = devices
        self.planner = ShardPlanner(len(devices), slices_per_device)
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
        n = values.shape[0]
        plan = self.planner.plan(n)
        if n <= 1:
            # Keep one entry per planned shard (a 1-element plan still has
            # one shard) so reports can index shard_sort_ms safely.
            return ShardedSortResult(
                values=values.copy(),
                plan=plan,
                schedule=ClusterSchedule(overlap=True),
                shard_sort_ms=[0.0] * len(plan.shards),
                machines=[None] * len(plan.shards),
            )

        # The vectorized merge is one sort of the union, so with two or
        # more shards (the planner makes none empty) it is the only sort a
        # shard needs: each shard's machine comes from the memo, unsorted.
        unsorted = not self.trace and len(plan.shards) > 1
        runs: list[np.ndarray] = []
        machines: list[StreamMachine | None] = []
        shard_sort_ms: list[float] = []
        # Modeled ms per (memo run, device GPU): equal shards share a run.
        costs: dict[tuple[int, int], float] = {}
        for shard in plan.shards:
            chunk = values[shard.start : shard.stop]
            machine = None
            sort_ms = 0.0
            if chunk.shape[0] >= 2:
                gpu = self.devices[shard.device].gpu
                if unsorted:
                    machine = counting_machine(_PROGRAM, chunk)
                else:
                    chunk, machine = sort_on_stream(
                        _PROGRAM, chunk, trace=self.trace
                    )
                run = getattr(machine, "run", None)
                key = (id(run), id(gpu))
                if run is None or key not in costs:
                    costs[key] = modeled_cost(machine, gpu, self.mapping).total_ms
                sort_ms = costs[key]
            runs.append(chunk)
            machines.append(machine)
            shard_sort_ms.append(sort_ms)

        if len(runs) > 1:
            merged, _ = merge_sorted_runs(runs, trace=self.trace)
        else:
            merged = runs[0]
        schedule, comparisons = shard_schedule(
            plan, shard_sort_ms, self.devices, self.host
        )
        return ShardedSortResult(
            values=merged,
            plan=plan,
            schedule=schedule,
            shard_sort_ms=shard_sort_ms,
            machines=machines,
            merge_comparisons=comparisons,
        )
