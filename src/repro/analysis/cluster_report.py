"""Human-readable reports for cluster schedules and the sort service.

Renders a :class:`repro.cluster.scheduler.ClusterSchedule` (or a full
:class:`repro.cluster.sharded.ShardedSortResult`) as the per-device table
the ``python -m repro cluster`` subcommand and the cluster benchmarks
print: per device, the time spent in each pipeline stage, the active span,
and the pipeline-bubble time; then the schedule-level aggregates --
critical-path makespan, host merge time, and the speedup against running
the same stages with no overlap and no device parallelism.
:func:`format_service_stats` gives the matching lifetime report for a
:class:`repro.service.ServiceStats` record (``python -m repro serve``
prints it on shutdown), and :func:`format_store_stats` the one for a
:class:`repro.store.StoreStats` record (``python -m repro store stats``),
and :func:`format_fleet_report` the per-tenant table for a
:class:`repro.fleet.FleetReport` (``python -m repro fleet replay``).

All of them assemble their output through the same two helpers --
:func:`build_report` (title + indented body lines) and
:func:`format_table` (first column left-aligned, the rest right) -- and
so does :func:`format_metrics_samples`, the text rendering behind
``python -m repro metrics``.
"""

from __future__ import annotations

from repro.cluster.scheduler import ClusterSchedule
from repro.cluster.sharded import ShardedSortResult
from repro.stream.stream import PAIR_BYTES

__all__ = [
    "build_report",
    "format_table",
    "format_cluster_schedule",
    "format_sharded_result",
    "format_service_stats",
    "format_store_stats",
    "format_fleet_report",
    "format_metrics_samples",
    "format_pool_health",
]


def build_report(title: str, lines: list[str]) -> str:
    """Assemble one report: ``title:`` then each line indented two spaces.

    Already-indented lines (nested tables) are kept as they are; an
    empty title yields just the body.  Every formatter in this module
    funnels through here so reports share one shape.
    """
    out = [title + ":"] if title else []
    for line in lines:
        out.append(line if line.startswith("  ") else "  " + line)
    return "\n".join(out)


def format_table(
    headers: list[str], rows: list[list[object]], *, indent: str = "  "
) -> list[str]:
    """Align one table as text lines: first column left, the rest right.

    Cells are stringified as given (callers format their own numbers);
    column widths fit the widest cell or header.  Returns the header
    line followed by one line per row, each prefixed with ``indent``.
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: list[str]) -> str:
        parts = [f"{cells[0]:<{widths[0]}}"] + [
            f"{cell:>{widths[i + 1]}}" for i, cell in enumerate(cells[1:])
        ]
        return indent + "  ".join(parts).rstrip()

    return [fmt(list(headers))] + [fmt(row) for row in text_rows]


def format_cluster_schedule(schedule: ClusterSchedule, title: str = "") -> str:
    """The per-device stage table plus schedule aggregates."""
    lines: list[str] = []
    if title:
        lines.append(title)
    header = (
        f"  {'device':>6}  {'tasks':>5}  {'upload':>9}  {'sort':>9}  "
        f"{'download':>9}  {'span':>9}  {'bubble':>8}"
    )
    lines.append(header)
    for index in sorted(schedule.timelines):
        t = schedule.timelines[index]
        tasks = len({e.task for e in t.events})
        lines.append(
            f"  {index:>6}  {tasks:>5}  {t.stage_ms('upload'):>7.2f}ms  "
            f"{t.stage_ms('sort'):>7.2f}ms  {t.stage_ms('download'):>7.2f}ms  "
            f"{t.span_ms:>7.2f}ms  {t.bubble_ms:>6.2f}ms"
        )
    serial_ms = schedule.serialized_ms
    lines.append(
        f"  transfers {schedule.transfer_bytes / 1e6:.2f} MB over the links; "
        f"overlap {'on' if schedule.overlap else 'off'}"
    )
    if schedule.merge_ms:
        lines.append(f"  host merge {schedule.merge_ms:.2f} ms after the last download")
    lines.append(
        f"  makespan {schedule.makespan_ms:.2f} ms "
        f"(all stages serialized: {serial_ms:.2f} ms, "
        f"speedup {serial_ms / schedule.makespan_ms:.2f}x)"
        if schedule.makespan_ms > 0
        else "  makespan 0.00 ms (empty schedule)"
    )
    return "\n".join(lines)


def format_sharded_result(result: ShardedSortResult, title: str = "") -> str:
    """Schedule table plus the shard plan and merge accounting."""
    plan = result.plan
    lines = [title] if title else []
    lines.append(
        f"  plan: {plan.n} pairs in {len(plan.shards)} shards on "
        f"{plan.used_devices}/{plan.devices} devices"
    )
    for shard in plan.shards:
        ms = result.shard_sort_ms[shard.index]
        lines.append(
            f"    shard{shard.index}: [{shard.start}, {shard.stop}) -> "
            f"dev{shard.device}, sort {ms:.2f} ms"
        )
    if result.merge_comparisons:
        lines.append(
            f"  k-way merge: {result.merge_comparisons} comparisons, "
            f"{result.schedule.merge_ms:.2f} ms on the host"
        )
    lines.append(format_cluster_schedule(result.schedule))
    return "\n".join(lines)


def format_service_stats(stats, title: str = "service stats") -> str:
    """Lifetime report for one :class:`repro.service.ServiceStats` record.

    Admission counts, batch shape, the modeled service time against the
    serialized yardstick, and the summed per-request telemetry (the same
    aggregate :func:`repro.engines.telemetry.aggregate_telemetry` builds
    for batches, queue-wait and coalesce fields included).
    """
    lines = [
        f"requests: {stats.submitted} submitted, {stats.completed} "
        f"completed, {stats.rejected} rejected, {stats.failed} failed",
        f"batches: {stats.batches} "
        f"(mean {stats.mean_batch:.1f}, largest {stats.largest_batch})",
        f"uptime: {stats.live_uptime_s():.1f} s "
        f"({stats.submitted / stats.live_uptime_s():.1f} submitted/s)"
        if stats.live_uptime_s() > 0
        else "uptime: 0.0 s",
    ]
    if stats.service_makespan_ms:
        lines.append(
            f"modeled service time {stats.service_makespan_ms:.2f} ms vs "
            f"{stats.serialized_ms:.2f} ms serialized "
            f"({stats.modeled_speedup:.2f}x)"
        )
    t = stats.telemetry
    if t.requests:
        lines.append(
            f"total queue wait {t.queue_wait_ms:.1f} ms "
            f"(coalesce {t.coalesce_ms:.1f} ms) over {t.requests} requests"
        )
        lines.append("aggregate telemetry: " + t.summary())
    return build_report(title, lines)


def format_store_stats(stats, title: str = "store stats") -> str:
    """Lifetime report for one :class:`repro.store.StoreStats` record.

    The manifest shape (runs, levels, live pairs), ingest and query
    volume with cache effectiveness, compaction activity with the
    measured-vs-predicted makespans, and the LSM health numbers -- write
    and read amplification priced by the store's modeled disk.
    """
    lines = [
        f"runs: {stats.runs} live in {stats.levels} level(s), "
        f"{stats.live_pairs} pairs",
        f"ingest: {stats.ingested_pairs} pairs in {stats.ingested_runs} "
        f"batches, modeled sort {stats.ingest_modeled_ms:.2f} ms",
    ]
    if stats.queries:
        lookups = stats.cache_hits + stats.cache_misses
        rate = stats.cache_hits / lookups if lookups else 0.0
        lines.append(
            f"queries: {stats.queries} answered, {stats.query_pairs} pairs "
            f"returned, cache hit rate {rate:.0%} "
            f"({stats.cache_hits}/{lookups})"
        )
        lines.append(
            f"read amplification {stats.read_amplification:.2f}x "
            f"({stats.query_read_bytes} disk bytes for "
            f"{stats.query_pairs * PAIR_BYTES} returned)"
        )
    if stats.compactions:
        lines.append(
            f"compactions: {stats.compactions} ({stats.compaction_passes} "
            f"passes, {stats.merge_comparisons} comparisons), modeled "
            f"makespan {stats.compaction_makespan_ms:.2f} ms "
            f"(predicted {stats.compaction_predicted_ms:.2f} ms)"
        )
    lines.append(
        f"modeled disk: {stats.bytes_written} B written, "
        f"{stats.bytes_read} B read, {stats.seeks} seeks; "
        f"write amplification {stats.write_amplification:.2f}x"
    )
    return build_report(title, lines)


def format_fleet_report(report, title: str = "") -> str:
    """Per-tenant table plus fleet aggregates for one trace replay.

    One row per tenant -- completions, evictions, preemptions, mean/p99
    wait, mean slowdown, makespan -- then the fleet-level lines: policy,
    pool footprint (with the autoscaler timeline when it moved), overall
    makespan, and the Jain fairness index over per-tenant mean slowdowns.
    """
    head = title or (
        f"fleet replay: trace {report.trace!r} (seed {report.seed}) "
        f"under {report.policy}"
    )
    lines = format_table(
        [
            "tenant", "done", "evict", "pre", "mean wait", "p99 wait",
            "slowdown", "makespan",
        ],
        [
            [
                t.name, t.completed, t.evicted, t.preemptions,
                f"{t.mean_wait_ms:.2f}ms", f"{t.p99_wait_ms:.2f}ms",
                f"{t.mean_slowdown:.2f}", f"{t.makespan_ms:.1f}ms",
            ]
            for t in report.tenants
        ],
    )
    pool = (
        f"{report.pool_min}"
        if report.pool_min == report.pool_max
        else f"{report.pool_min}-{report.pool_max} (autoscaled)"
    )
    lines.append(
        f"pool: {pool} devices; makespan {report.makespan_ms:.1f} ms "
        f"(uptime {report.uptime_ms:.1f} ms); "
        f"{report.completed}/{report.submitted} completed, "
        f"{report.evicted} evicted, {report.preemptions} preemptions"
    )
    lines.append(f"fairness (Jain over mean slowdown): {report.fairness:.3f}")
    if report.telemetry is not None:
        lines.append("aggregate telemetry: " + report.telemetry.summary())
    return build_report(head, lines)


def format_metrics_samples(metrics: list[dict], title: str = "metrics") -> str:
    """One metric-samples table (the ``python -m repro metrics`` body).

    ``metrics`` is a list of flattened sample records -- the
    ``{"name", "labels", "value"}`` objects a metrics-NDJSON line (or
    :meth:`repro.obs.metrics.Sample.to_json`) carries.  Rendering routes
    through the same :func:`format_table` helper as the other reports.
    """
    rows = []
    for sample in metrics:
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(sample["labels"].items())
        )
        value = sample["value"]
        shown = (
            str(int(value))
            if float(value).is_integer()
            else f"{float(value):.6g}"
        )
        rows.append([sample["name"], labels or "-", shown])
    return build_report(
        title, format_table(["metric", "labels", "value"], rows)
    )


def format_pool_health(health, title: str = "") -> str:
    """Text report for one :class:`repro.obs.PoolHealth` summary.

    Pool totals, the per-device utilization table (when the replay ran
    under a :class:`~repro.fleet.FleetObserver`), overload counters, and
    the analyzer's notes -- the ``python -m repro report health`` body;
    the HTML rendering of the same record is
    :func:`repro.obs.render_health_html`.
    """
    head = title or (
        f"pool health: trace {health.trace!r} (seed {health.seed}) "
        f"under {health.policy}"
    )
    lines = [
        f"pool: {health.devices} devices over {health.uptime_ms:.1f} ms; "
        f"utilization {health.utilization:.1%} "
        f"(busy {health.busy_ms:.1f} of {health.capacity_ms:.1f} "
        f"capacity ms, bubble {health.bubble_ms:.1f} ms)",
    ]
    if health.per_device:
        lines.extend(
            format_table(
                ["device", "jobs", "busy", "bubble", "util"],
                [
                    [
                        f"slot{d.slot}", d.jobs, f"{d.busy_ms:.1f}ms",
                        f"{d.bubble_ms:.1f}ms", f"{d.utilization:.1%}",
                    ]
                    for d in health.per_device
                ],
            )
        )
    lines.append(
        f"overload: {health.evicted} evicted "
        f"({health.eviction_rate_per_s:.2f}/s), "
        f"{health.preemptions} preemptions, "
        f"peak queue depth {health.peak_queue_depth}"
    )
    lines.append(f"fairness (Jain over mean slowdown): {health.fairness:.3f}")
    lines.extend(f"note: {note}" for note in health.notes)
    return build_report(head, lines)
