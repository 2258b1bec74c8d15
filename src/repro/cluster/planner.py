"""Shard planning: split one sort into per-device pipeline slices.

The planner turns "sort n pairs on d devices" into contiguous input
partitions.  The device count ``d`` itself is a *policy* input: callers
may fix it (``repro.sort(..., devices=N)``), or let the cost-model
planner of :mod:`repro.planner` choose it -- the sharded engine's cost
model runs this very planner over candidate device counts, prices each
shard with the calibrated ABiSort cost curve, and hands the winning
count back through ``SortRequest.devices``.  Two levels of splitting:

* **partition** -- each device receives one contiguous range of the input
  (balanced to within one element);
* **slices** -- each partition is further cut into ``slices_per_device``
  pipeline slices.  Slices are what make the Section-7 transfer-overlap
  trick work on a single device: while slice ``i`` sorts on the GPU, slice
  ``i+1`` uploads and slice ``i-1`` downloads.  More slices mean smaller
  bubbles but more sorted runs for the final k-way merge (and more
  per-stream-op overhead, since sorting two halves separately still costs
  two O(log^2) schedules).

Correctness does not depend on the partition at all: every shard is sorted
under the paper's (key, id) total order and the loser-tree merge
(:mod:`repro.cluster.sharded`) recombines shards under the same order, so
the output is bit-identical to a single-device sort for *any* shard count
-- which the equivalence tests assert for 1/2/4/7 shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.scheduler import PipelineTask
from repro.errors import SortInputError
from repro.stream.stream import PAIR_BYTES

__all__ = ["Shard", "ShardPlan", "ShardPlanner"]


@dataclass(frozen=True)
class Shard:
    """One contiguous input range assigned to one device."""

    index: int
    device: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """The full partition of one sort across a cluster."""

    n: int
    devices: int
    shards: tuple[Shard, ...]

    def for_device(self, device: int) -> tuple[Shard, ...]:
        """The shards assigned to ``device``, in pipeline order."""
        return tuple(s for s in self.shards if s.device == device)

    def lengths(self) -> tuple[int, ...]:
        """Shard lengths in shard order -- what cost models price (the
        sharded cost model pads each to its power of two, exactly as the
        executor does)."""
        return tuple(len(s) for s in self.shards)

    def pipeline_tasks(self, sort_ms: Sequence[float]) -> list[PipelineTask]:
        """One upload -> sort -> download task per shard, in shard order:
        the shard's pairs go up and come back down, and it sorts for its
        ``sort_ms`` entry."""
        return [
            PipelineTask(
                label=f"shard{shard.index}",
                device=shard.device,
                upload_bytes=len(shard) * PAIR_BYTES,
                sort_ms=ms,
                download_bytes=len(shard) * PAIR_BYTES,
            )
            for shard, ms in zip(self.shards, sort_ms)
        ]

    @property
    def used_devices(self) -> int:
        """Devices that actually received work (tiny inputs use fewer)."""
        return len({s.device for s in self.shards})


class ShardPlanner:
    """Balanced contiguous partitioning of a sort across devices.

    Parameters
    ----------
    devices:
        Cluster size; each device receives a nearly equal share of the
        input (the modeled GPUs are homogeneous).
    slices_per_device:
        Pipeline depth per device; 1 disables intra-device overlap (one
        upload, one sort, one download per device), 2+ enables the
        Section-7 overlap generalisation.
    """

    def __init__(self, devices: int, slices_per_device: int = 1):
        if devices < 1:
            raise SortInputError(f"planner needs >= 1 device, got {devices}")
        if slices_per_device < 1:
            raise SortInputError(
                f"planner needs >= 1 slice per device, got {slices_per_device}"
            )
        self.devices = devices
        self.slices_per_device = slices_per_device

    def plan(self, n: int) -> ShardPlan:
        """Partition ``n`` elements; degenerate inputs yield fewer shards.

        Every shard is non-empty: when ``n`` is smaller than the requested
        shard count, trailing devices simply receive nothing (a one-element
        sort on seven devices is one shard on one device).
        """
        if n < 0:
            raise SortInputError("cannot plan a negative-length sort")
        shards: list[Shard] = []
        if n == 0:
            return ShardPlan(n=0, devices=self.devices, shards=())
        parts = min(n, self.devices)
        base, extra = divmod(n, parts)
        offset = 0
        for dev in range(parts):
            part_len = base + (1 if dev < extra else 0)
            sub = min(part_len, self.slices_per_device)
            s_base, s_extra = divmod(part_len, sub)
            for s in range(sub):
                length = s_base + (1 if s < s_extra else 0)
                shards.append(
                    Shard(
                        index=len(shards),
                        device=dev,
                        start=offset,
                        stop=offset + length,
                    )
                )
                offset += length
        assert offset == n
        return ShardPlan(n=n, devices=self.devices, shards=tuple(shards))
