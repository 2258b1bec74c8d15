"""Shared telemetry aggregation helpers.

One place for the summing that used to be duplicated between the
``sort_batch`` cluster fast path (:mod:`repro.engines`), the sharded
engine adapter (:mod:`repro.engines.adapters`), the sort service
(:mod:`repro.service`), and the cluster report
(:mod:`repro.analysis.cluster_report`): batch aggregation over per-request
results, folding a pipeline schedule's aggregates into a telemetry record,
accumulating stream-machine counters, and turning a list of completed
results into the pipeline stage specs / tasks an overlapped
:class:`~repro.cluster.scheduler.Scheduler` run needs.
"""

from __future__ import annotations

from repro.engines.base import SortResult, SortTelemetry

__all__ = [
    "aggregate_telemetry",
    "fill_schedule_telemetry",
    "add_machine_counters",
    "result_stage_specs",
    "pipeline_tasks_for_results",
]


def aggregate_telemetry(results: "list[SortResult]") -> SortTelemetry:
    """One telemetry record summed over per-request results (the batch
    aggregate: ``requests`` counts the batch size)."""
    total = SortTelemetry(requests=0)
    for result in results:
        total.add(result.telemetry)
    return total


def fill_schedule_telemetry(
    telemetry: SortTelemetry, schedule, devices: int
) -> None:
    """Overwrite ``telemetry``'s multi-device fields from a
    :class:`~repro.cluster.scheduler.ClusterSchedule`.

    Summed per-request values are replaced by the overlapped schedule's
    aggregates: its makespan, bubble time, link traffic, and the device
    count that served it.
    """
    telemetry.devices = devices
    telemetry.transfer_bytes = schedule.transfer_bytes
    telemetry.modeled_transfer_ms = schedule.transfer_ms
    telemetry.modeled_makespan_ms = schedule.makespan_ms
    telemetry.pipeline_bubble_ms = schedule.bubble_ms


def add_machine_counters(telemetry: SortTelemetry, counters) -> None:
    """Accumulate one :class:`~repro.stream.context.MachineCounters`
    record (one stream machine's op-log totals)."""
    telemetry.stream_ops += counters.stream_ops
    telemetry.kernel_ops += counters.kernel_ops
    telemetry.copy_ops += counters.copy_ops
    telemetry.kernel_instances += counters.instances
    telemetry.bytes_moved += counters.total_bytes
    telemetry.gather_bytes += counters.gather_bytes


def result_stage_specs(
    results: "list[SortResult]", link
) -> tuple[list[tuple[int, float]], list[float]]:
    """Per-result pipeline stage specs and serialized weights.

    For each completed result: ``(payload_bytes, sort_ms)`` -- what its
    upload/sort/download stages cost on one modeled device -- plus its
    total serialized weight over ``link`` (upload + sort + download), the
    quantity LPT placement balances.  Stream-machine and cluster results
    pay the bus round trip of their payload; host-side engines (``cpu-*``,
    ``external``) have nothing to upload to a device, so their payload is 0
    and their weight is the modeled total time alone.
    """
    specs: list[tuple[int, float]] = []
    weights: list[float] = []
    for res in results:
        on_device = res.machine is not None or res.cluster is not None
        nbytes = res.values.nbytes if on_device else 0
        sort_ms = (
            res.telemetry.modeled_gpu_ms
            if on_device
            else res.telemetry.modeled_total_ms
        )
        specs.append((nbytes, sort_ms))
        weights.append(
            link.upload_ms(nbytes) + sort_ms + link.download_ms(nbytes)
        )
    return specs, weights


def pipeline_tasks_for_results(
    results: "list[SortResult]", assignment: "list[int]", link
):
    """Scheduler tasks for completed results under a device assignment.

    Builds one :class:`~repro.cluster.scheduler.PipelineTask` per result,
    placed on ``assignment[i]``, in LPT service order (heaviest first by
    :func:`result_stage_specs` weight, matching the placement's load
    accounting -- ties keep input order).
    """
    from repro.cluster.scheduler import PipelineTask  # late: avoid cycle

    specs, weights = result_stage_specs(results, link)
    order = sorted(range(len(results)), key=lambda i: (-weights[i], i))
    return [
        PipelineTask(
            label=f"req{i}",
            device=assignment[i],
            upload_bytes=specs[i][0],
            sort_ms=specs[i][1],
            download_bytes=specs[i][0],
        )
        for i in order
    ]
