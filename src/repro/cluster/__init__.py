"""Multi-device execution: devices, shard planning, overlap scheduling.

The paper sorts on one stream architecture; this package scales the same
counted-work methodology out to a modeled cluster of them:

* :mod:`repro.cluster.device` -- the :class:`Device` value: an index, one
  :class:`~repro.stream.gpu_model.GPUModel` and a
  :class:`~repro.stream.transfer.TransferLink` (modeled up/down bus
  bandwidth); a device holds no log of the sorts it ran;
* :mod:`repro.cluster.planner` -- :class:`ShardPlanner`: balanced
  contiguous partitions, optionally sliced per device for pipelining;
* :mod:`repro.cluster.scheduler` -- the event-driven :class:`Scheduler`
  that overlaps each shard's upload, sort, and download across devices
  (the paper's Section-7 transfer-overlap trick generalised to N devices)
  and reports makespan, per-device time, and pipeline-bubble time;
* :mod:`repro.cluster.sharded` -- :class:`ShardedSorter`: the end-to-end
  sharded sort, recombined by a k-way merge reusing
  :class:`repro.hybrid.external.LoserTree`.  Its result is a value that
  carries each shard's stream machine, and :func:`shard_schedule` is the
  one rule that prices a shard plan, for the sorter and the planner's
  cost model alike.

The registered ``sharded-abisort`` engine (:mod:`repro.engines.adapters`)
and ``repro.sort_batch(..., devices=N)`` are the public faces of this
package; ``python -m repro cluster`` drives it from the command line.
"""

from repro.cluster.device import Device, make_devices
from repro.cluster.planner import Shard, ShardPlan, ShardPlanner
from repro.cluster.scheduler import (
    ClusterSchedule,
    DeviceTimeline,
    PipelineTask,
    Scheduler,
    StageEvent,
    lpt,
)
from repro.cluster.sharded import (
    ShardedSorter,
    ShardedSortResult,
    merge_sorted_runs,
    shard_schedule,
)

__all__ = [
    "Device",
    "make_devices",
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "PipelineTask",
    "StageEvent",
    "DeviceTimeline",
    "ClusterSchedule",
    "Scheduler",
    "lpt",
    "ShardedSorter",
    "ShardedSortResult",
    "merge_sorted_runs",
    "shard_schedule",
]
