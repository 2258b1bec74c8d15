"""The event-driven cluster scheduler: overlap upload, sort, and download.

Section 7 of the paper hides bus transfers behind sorting on one GPU: while
chunk ``i`` sorts, chunk ``i+1`` uploads and chunk ``i-1`` downloads.  This
module generalises that three-stage pipeline to N devices.  Each device
exposes three modeled resources:

* its **upload channel** (CPU -> GPU, :class:`TransferLink.up_gb_s`),
* its **compute** engine (exclusive: one sort at a time),
* its **download channel** (GPU -> CPU, :class:`TransferLink.down_gb_s`).

Tasks (one per shard or per batch request) flow through the three resources
in order; resources serve their queue FIFO.  With ``overlap=True`` the three
resources of a device run concurrently (full-duplex bus), so the upload of
task ``i+1`` proceeds under the sort of task ``i`` -- the Section-7 trick.
With ``overlap=False`` every stage of every task holds the whole device,
modeling the naive upload/sort/download round trip the paper improves on.

The resulting :class:`ClusterSchedule` carries the telemetry the issue of
scale-out asks for: per-device busy time, transfer bytes, **pipeline-bubble
time** (compute idle gaps while the device waits on transfers), and the
critical-path **makespan** (including the final host-side merge, when one
is scheduled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ModelError
from repro.cluster.device import Device

__all__ = ["PipelineTask", "StageEvent", "DeviceTimeline", "ClusterSchedule",
           "Scheduler", "lpt"]

#: Stage names in pipeline order.
STAGES = ("upload", "sort", "download")


@dataclass(frozen=True)
class PipelineTask:
    """One unit of device work: upload ``upload_bytes``, sort for
    ``sort_ms``, download ``download_bytes``."""

    label: str
    device: int
    upload_bytes: int
    sort_ms: float
    download_bytes: int


@dataclass(frozen=True)
class StageEvent:
    """One scheduled stage occupancy on one resource."""

    task: str
    device: int
    stage: str  # "upload" | "sort" | "download" | "merge"
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        """The stage's occupancy time on its resource."""
        return self.end_ms - self.start_ms


@dataclass
class DeviceTimeline:
    """Per-device slice of a schedule, with its derived telemetry."""

    device: int
    events: list[StageEvent] = field(default_factory=list)

    @property
    def span_ms(self) -> float:
        """First start to last end on this device (0 when idle)."""
        if not self.events:
            return 0.0
        return max(e.end_ms for e in self.events) - min(
            e.start_ms for e in self.events
        )

    @property
    def finish_ms(self) -> float:
        """When the device's last stage completes."""
        return max((e.end_ms for e in self.events), default=0.0)

    def stage_ms(self, stage: str) -> float:
        """Total modeled time spent in one stage kind."""
        return sum(e.duration_ms for e in self.events if e.stage == stage)

    @property
    def busy_ms(self) -> float:
        """Sum of all stage durations (may exceed span when overlapped)."""
        return sum(e.duration_ms for e in self.events)

    @property
    def bubble_ms(self) -> float:
        """Compute idle time inside the compute window: the pipeline bubble.

        The gap between the first sort's start and the last sort's end not
        covered by sorting -- i.e. time the device's compute engine sat
        waiting for transfers.  Non-negative by construction (FIFO compute
        resource: sorts never overlap each other).
        """
        sorts = [e for e in self.events if e.stage == "sort"]
        if not sorts:
            return 0.0
        window = max(e.end_ms for e in sorts) - min(e.start_ms for e in sorts)
        return window - sum(e.duration_ms for e in sorts)


@dataclass
class ClusterSchedule:
    """A fully scheduled pipeline: events, timelines, and aggregates."""

    overlap: bool
    events: list[StageEvent] = field(default_factory=list)
    timelines: dict[int, DeviceTimeline] = field(default_factory=dict)
    merge_ms: float = 0.0
    #: Host-side merge completion (== device finish when no merge).
    makespan_ms: float = 0.0
    transfer_bytes: int = 0

    @property
    def device_finish_ms(self) -> float:
        """When the last device stage (not the host merge) completes."""
        return max((t.finish_ms for t in self.timelines.values()), default=0.0)

    @property
    def total_device_ms(self) -> float:
        """Sum of per-device spans -- the serialized-cluster yardstick."""
        return sum(t.span_ms for t in self.timelines.values())

    @property
    def bubble_ms(self) -> float:
        """Total pipeline-bubble time across devices."""
        return sum(t.bubble_ms for t in self.timelines.values())

    @property
    def transfer_ms(self) -> float:
        """Total modeled time spent on the links (uploads + downloads)."""
        return sum(
            e.duration_ms
            for e in self.events
            if e.stage in ("upload", "download")
        )

    @property
    def serialized_ms(self) -> float:
        """Sum of every stage duration -- the no-overlap, no-parallelism
        yardstick reports and speedup figures compare the makespan to."""
        return sum(e.duration_ms for e in self.events)


class Scheduler:
    """Schedule pipeline tasks over a device list, FIFO per resource."""

    def __init__(self, devices: list[Device], *, overlap: bool = True):
        if not devices:
            raise ModelError("scheduler needs at least one device")
        self.devices = devices
        self.overlap = overlap

    def run(
        self, tasks: list[PipelineTask], *, merge_ms: float = 0.0
    ) -> ClusterSchedule:
        """Place every task's three stages; append an optional host merge.

        Tasks are laid out in list order per device (the planner emits
        shards in pipeline order).  ``merge_ms`` > 0 schedules one host-side
        merge stage that starts once every download has landed.
        """
        schedule = ClusterSchedule(overlap=self.overlap)
        # Per-device resource-free times: upload, compute, download.
        free = {d.index: [0.0, 0.0, 0.0] for d in self.devices}
        by_index = {d.index: d for d in self.devices}
        for task in tasks:
            if task.device not in by_index:
                raise ModelError(
                    f"task {task.label!r} targets unknown device {task.device}"
                )
            device = by_index[task.device]
            up_free, comp_free, down_free = free[task.device]
            up_ms = device.link.upload_ms(task.upload_bytes)
            down_ms = device.link.download_ms(task.download_bytes)

            u0 = up_free
            u1 = u0 + up_ms
            s0 = max(comp_free, u1)
            s1 = s0 + task.sort_ms
            d0 = max(down_free, s1)
            d1 = d0 + down_ms

            if self.overlap:
                # Full-duplex link + independent compute: each resource is
                # free again as soon as its own stage ends.
                free[task.device] = [u1, s1, d1]
            else:
                # The whole device serializes: nothing of the next task
                # starts before this task's download completes.
                free[task.device] = [d1, d1, d1]

            timeline = schedule.timelines.setdefault(
                task.device, DeviceTimeline(device=task.device)
            )
            for stage, start, end in (
                ("upload", u0, u1),
                ("sort", s0, s1),
                ("download", d0, d1),
            ):
                if end > start:
                    event = StageEvent(task.label, task.device, stage, start, end)
                    schedule.events.append(event)
                    timeline.events.append(event)
            schedule.transfer_bytes += task.upload_bytes + task.download_bytes

        schedule.makespan_ms = schedule.device_finish_ms
        if merge_ms > 0.0:
            start = schedule.device_finish_ms
            event = StageEvent("merge", -1, "merge", start, start + merge_ms)
            schedule.events.append(event)
            schedule.merge_ms = merge_ms
            schedule.makespan_ms = start + merge_ms
        return schedule

    def assign_lpt(self, weights: list[float]) -> list[int]:
        """:func:`lpt` placement of ``weights`` on this scheduler's devices."""
        return lpt(weights, [d.index for d in self.devices])[0]


def lpt(
    weights: list[float], devices: Iterable[int]
) -> tuple[list[int], dict[int, float]]:
    """Longest-processing-time placement of weighted tasks on ``devices``.

    The classic 4/3-approximation for makespan on identical machines:
    visit tasks in decreasing weight and put each on the currently
    least-loaded device.  Deterministic: weight ties keep input order,
    load ties pick the lowest device index.  Returns the device index per
    task (in input order) and each device's load, summed in input order
    so every caller's modeled makespan is the same float.
    """
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    placed = {d: 0.0 for d in devices}
    assignment = [0] * len(weights)
    for i in order:
        device = min(placed, key=lambda d: (placed[d], d))
        assignment[i] = device
        placed[device] += weights[i]
    loads = dict.fromkeys(placed, 0.0)
    for weight, device in zip(weights, assignment):
        loads[device] += weight
    return assignment, loads
