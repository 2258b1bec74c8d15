"""Sharded GPU-ABiSort: plan, pipeline, sort per device, k-way merge.

The scale-out sort the cluster subsystem exists for:

1. :class:`~repro.cluster.planner.ShardPlanner` partitions the input into
   contiguous shards (one or more pipeline slices per device);
2. every shard is sorted on its device -- a per-device GPU-ABiSort driver
   bound to that device's stream machines (so op logs and counters stay
   per device); under the ``vectorized`` tier the op log is replayed from
   the stream tier's memo (:mod:`repro.exec.stream_tier`), identically;
3. the :class:`~repro.cluster.scheduler.Scheduler` lays the shards'
   upload/sort/download stages onto the devices' modeled resources,
   overlapping transfers with compute (Section 7 generalised to N devices);
4. the sorted shard runs are recombined by a k-way merge reusing
   :class:`repro.hybrid.external.LoserTree` under the same (key, id) total
   order the devices sorted by.

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
from repro.cluster.scheduler import ClusterSchedule, PipelineTask, Scheduler
from repro.errors import SortInputError
from repro.exec import get_backend
from repro.exec.stream_tier import counting_sort_run, modeled_cost
from repro.stream.gpu_model import PCIE_SYSTEM, HostSystem
from repro.stream.mapping2d import Mapping2D, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE

__all__ = ["ShardedSorter", "ShardedSortResult", "merge_sorted_runs"]


def _pad_shard(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Pad one shard to a power of two with +inf keys and *fresh* ids.

    Unlike :func:`repro.workloads.records.pad_to_power_of_two` (whose
    padding ids continue past the chunk length), a shard's ids are global
    input positions, so ids starting at the chunk length could collide with
    real ids of a later shard range.  Padding here draws ids past the
    shard's own maximum, which sort strictly after every real row, so the
    caller truncates with ``sorted[:len(chunk)]`` (returns ``None``).

    At the uint32 ceiling no larger ids exist; the fallback draws *unused*
    small ids instead and returns them, and the caller must then drop the
    padding rows **by id** -- slice truncation would be wrong there, since
    a small-id pad sorts before a real row whose key is also +inf.
    """
    n = chunk.shape[0]
    target = 1 << max(1, (n - 1).bit_length())
    if target == n:
        return chunk.copy(), None
    pad = np.empty(target - n, dtype=VALUE_DTYPE)
    pad["key"] = np.inf
    base = int(chunk["id"].max()) + 1
    if base + (target - n) <= 1 << 32:
        pad["id"] = np.arange(base, base + target - n, dtype=np.uint32)
        pad_ids = None
    else:
        used = np.unique(chunk["id"])
        free = np.setdiff1d(
            np.arange(2 * target, dtype=np.uint32), used, assume_unique=True
        )
        pad["id"] = free[: target - n]
        pad_ids = pad["id"].copy()
    return np.concatenate([chunk, pad]), pad_ids


def _strip_padding(sorted_padded: np.ndarray, orig: int,
                   pad_ids: np.ndarray | None) -> np.ndarray:
    """Remove the padding rows from a sorted padded shard."""
    if pad_ids is None:
        # Pads have +inf keys and ids above every real id: they sort last.
        return sorted_padded[:orig]
    out = sorted_padded[~np.isin(sorted_padded["id"], pad_ids)]
    assert out.shape[0] == orig
    return out


def merge_sorted_runs(
    runs: list[np.ndarray], tier: str = "vectorized"
) -> tuple[np.ndarray, int]:
    """K-way merge of sorted ``VALUE_DTYPE`` runs, loser-tree semantics.

    Returns the merged array and the number of comparisons the loser
    tree plays (~``n log2 k``, the counted cost of the host-side merge
    stage).  Empty runs are skipped; a single run returns a copy with
    zero comparisons.  ``tier`` selects the execution backend (see
    :mod:`repro.exec`): ``"reference"`` plays every match, ``"vectorized"``
    merges with numpy -- the merged bytes and the comparison count are
    identical either way.
    """
    return get_backend(tier).merge_runs(runs)


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
    tier:
        Execution tier (see :mod:`repro.exec`).  Under the default
        ``vectorized`` tier the per-shard op logs come from the stream
        tier's memo (:mod:`repro.exec.stream_tier`) -- each replayed
        machine is adopted into its device's machine log, so per-device
        op logs and counters stay identical to a reference run -- and the
        host-side merge loop runs on numpy.  Bit- and telemetry-identical.
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
        tier: str = "vectorized",
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
        get_backend(tier)  # reject an unknown tier up front
        self.tier = tier

    def sort(self, values: np.ndarray) -> ShardedSortResult:
        """Sort a ``VALUE_DTYPE`` array of any length across the cluster."""
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

        runs: list[np.ndarray] = []
        tasks: list[PipelineTask] = []
        shard_sort_ms: list[float] = []
        itemsize = values.dtype.itemsize
        fast = self.tier == "vectorized"
        for shard in plan.shards:
            chunk = values[shard.start : shard.stop]
            sort_ms = 0.0
            if chunk.shape[0] >= 2:
                padded, pad_ids = _pad_shard(chunk)
                machine = None
                if fast:
                    res = counting_sort_run(self.config, padded)
                    if res is not None:
                        sorted_padded, machine = res
                        # Adopt the counting machine so this device's op
                        # log and counters match a reference run exactly.
                        self.devices[shard.device].machines.append(machine)
                if machine is None:
                    sorter = self.devices[shard.device].make_sorter(self.config)
                    sorted_padded = sorter.sort(padded)
                    machine = sorter.last_machine
                sorted_chunk = _strip_padding(
                    sorted_padded, chunk.shape[0], pad_ids
                )
                sort_ms = modeled_cost(
                    machine, self.devices[shard.device].gpu, self.mapping
                ).total_ms
            else:
                sorted_chunk = chunk.copy()
            runs.append(sorted_chunk)
            shard_sort_ms.append(sort_ms)
            nbytes = len(shard) * itemsize
            tasks.append(
                PipelineTask(
                    label=f"shard{shard.index}",
                    device=shard.device,
                    upload_bytes=nbytes,
                    sort_ms=sort_ms,
                    download_bytes=nbytes,
                )
            )

        if len(runs) > 1:
            merged, comparisons = merge_sorted_runs(runs, tier=self.tier)
        else:
            merged, comparisons = runs[0], 0
        merge_ms = comparisons * self.host.cpu_op_ns * 1e-6

        scheduler = Scheduler(self.devices, overlap=self.overlap)
        schedule = scheduler.run(tasks, merge_ms=merge_ms)
        return ShardedSortResult(
            values=merged,
            plan=plan,
            schedule=schedule,
            devices=self.devices,
            shard_sort_ms=shard_sort_ms,
            merge_comparisons=comparisons,
            merge_modeled_ms=merge_ms,
        )
