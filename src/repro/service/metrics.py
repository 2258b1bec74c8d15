"""Service instrumentation: the metrics registry and request spans.

:func:`instrument` attaches a :class:`ServiceInstrumentation` to a
:class:`~repro.service.SortService`.  The design keeps the hot path
honest:

* every counter that mirrors a :class:`~repro.service.ServiceStats`
  field is **callback-backed** -- it reads the stats record at scrape
  time, so the pipeline pays nothing and an exposition is always
  consistent with a simultaneously-taken ``stats.snapshot()`` (the
  acceptance check);
* only the distribution metrics (queue-wait / coalesce / batch-size
  histograms, per-device busy counters, planner-error histogram) and the
  span recorder touch the pipeline, through two hooks the service calls
  per executed request, on the worker thread between sorts
  (:meth:`ServiceInstrumentation.on_execute`, per-device busy time only),
  and per finalized batch, on the event loop
  (:meth:`ServiceInstrumentation.on_batch`, everything else).

Spans put each batch on a wall-clock timeline (milliseconds since the
instrumentation was created): per request a ``coalesce`` span (submit to
batch seal) and a ``queue`` span (seal to execution start), then the
batch's modeled ``upload``/``sort``/``download``/``merge`` stage spans
laid out from its :class:`~repro.cluster.scheduler.ClusterSchedule` so
the trace ends where the batch finalized.  ``{"op": "trace"}`` on the
socket server exports them as Chrome trace-event JSON.
"""

from __future__ import annotations

import time

from repro.engines.cost import measured_cost_ms
from repro.obs.metrics import DEFAULT_MS_BUCKETS, MetricsRegistry
from repro.obs.trace import SpanRecorder
from repro.planner.planner import default_planner
from repro.service.config import RETRY_AFTER_MS

__all__ = ["ServiceInstrumentation", "instrument"]

#: Batch-size histogram buckets (powers of two up to a large batch).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: Relative-error buckets for predicted-vs-measured plan cost.
ERROR_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class ServiceInstrumentation:
    """One service's metrics registry and span recorder.

    Construct through :func:`instrument`, which also points
    ``service.observer`` here so the pipeline hooks fire.
    """

    #: Span ring size: the most recent spans a trace export can show.
    TRACE_CAPACITY = 4096

    def __init__(self, service):
        self.service = service
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(capacity=self.TRACE_CAPACITY)
        self._t0 = time.perf_counter()

        reg = self.registry
        stats = service.stats

        def s(field_name):
            return lambda: getattr(service.stats, field_name)

        reg.counter(
            "repro_service_submitted_total", "Requests admitted",
            fn=s("submitted"),
        )
        reg.counter(
            "repro_service_completed_total", "Requests completed",
            fn=s("completed"),
        )
        reg.counter(
            "repro_service_rejected_total",
            "Requests rejected by admission control", fn=s("rejected"),
        )
        reg.counter(
            "repro_service_failed_total", "Requests that raised",
            fn=s("failed"),
        )
        reg.counter(
            "repro_service_batches_total", "Batches finalized",
            fn=s("batches"),
        )
        reg.counter(
            "repro_service_makespan_ms_total",
            "Modeled batch makespans, summed", fn=s("service_makespan_ms"),
        )
        reg.counter(
            "repro_service_serialized_ms_total",
            "Modeled all-stages-serialized yardstick, summed",
            fn=s("serialized_ms"),
        )
        reg.gauge(
            "repro_service_pending",
            "Requests admitted but not yet completed (queue depth)",
            fn=lambda: service.pending,
        )
        reg.gauge(
            "repro_service_largest_batch", "Largest batch so far",
            fn=s("largest_batch"),
        )
        reg.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the service's stats record started",
            fn=lambda: service.stats.live_uptime_s(),
        )
        reg.gauge(
            "repro_service_retry_after_ms",
            "Back-off hint rejected clients receive",
            fn=lambda: RETRY_AFTER_MS,
        )
        # The service plans with the process-wide single-device planner,
        # so these count every caller of default_planner(1) in the process.
        cache = default_planner(1).cache
        reg.counter(
            "repro_planner_cache_hits_total", "Plan-cache hits",
            fn=lambda: cache.hits,
        )
        reg.counter(
            "repro_planner_cache_misses_total", "Plan-cache misses",
            fn=lambda: cache.misses,
        )
        reg.gauge(
            "repro_planner_cache_hit_ratio",
            "Plan-cache hits over lookups",
            fn=lambda: cache.hit_ratio,
        )
        self.queue_wait = reg.histogram(
            "repro_service_queue_wait_ms",
            "Submit-to-execution wait of completed requests (wall ms)",
            buckets=DEFAULT_MS_BUCKETS,
        )
        self.coalesce = reg.histogram(
            "repro_service_coalesce_ms",
            "Submit-to-batch-seal time of completed requests (wall ms)",
            buckets=DEFAULT_MS_BUCKETS,
        )
        self.batch_size = reg.histogram(
            "repro_service_batch_size", "Requests per finalized batch",
            buckets=BATCH_BUCKETS,
        )
        self.plan_error = reg.histogram(
            "repro_planner_relative_error",
            "abs(predicted - executed) / executed modeled cost per "
            "planner-routed request",
            buckets=ERROR_BUCKETS,
        )
        self.device_busy = reg.counter(
            "repro_service_device_busy_ms_total",
            "Wall time each worker spent executing sorts", ("device",),
        )
        self._device_children: dict[int, object] = {}
        del stats  # callbacks read the live record, not this binding

    def now_ms(self) -> float:
        """Wall milliseconds since this instrumentation was created."""
        return (time.perf_counter() - self._t0) * 1e3

    # -- pipeline hooks ------------------------------------------------------

    def on_execute(self, device: int, busy_ms: float, ticket) -> None:
        """One request finished executing on worker ``device``.

        Called on the executor thread that runs the device's share, so it
        touches only that device's busy counter: the device lock keeps
        one thread on a given child at a time.
        """
        child = self._device_children.get(device)
        if child is None:
            child = self.device_busy.labels(device=str(device))
            self._device_children[device] = child
        child.inc(busy_ms)

    def on_batch(self, done, schedule) -> None:
        """One batch finalized: ``done`` is ``[(ticket, device), ...]``.

        Runs on the event loop.  Histograms get every completed request's
        measured queue wait and coalesce hold, and every planner-routed
        request's plan error; the span recorder gets the batch laid out
        on the wall timeline, with the modeled stage schedule anchored so
        the batch ends at the finalize instant.
        """
        now = self.now_ms()
        batch_index = self.service.stats.batches
        self.batch_size.observe(len(done))
        origin = now - schedule.makespan_ms
        earliest = now
        for i, (ticket, _device) in enumerate(done):
            telemetry = ticket.result.telemetry
            self.queue_wait.observe(telemetry.queue_wait_ms)
            self.coalesce.observe(ticket.coalesce_ms)
            if ticket.plan is not None:
                executed = measured_cost_ms(ticket.result, ticket.request)
                if executed:
                    self.plan_error.observe(
                        abs(ticket.plan.cost_ms - executed) / executed
                    )
            submit = (ticket.submitted - self._t0) * 1e3
            earliest = min(earliest, submit)
            tid = f"req{i}"
            self.spans.record(
                f"batch{batch_index}/{tid}", "coalesce",
                submit, ticket.coalesce_ms,
                pid="requests", tid=tid, engine=ticket.exec_engine,
            )
            self.spans.record(
                f"batch{batch_index}/{tid}", "queue",
                submit + ticket.coalesce_ms,
                max(telemetry.queue_wait_ms - ticket.coalesce_ms, 0.0),
                pid="requests", tid=tid,
            )
        for event in schedule.events:
            self.spans.record(
                f"batch{batch_index}/{event.task}", event.stage,
                origin + event.start_ms, event.duration_ms,
                pid="devices", tid=f"dev{event.device}",
            )
        self.spans.record(
            f"batch{batch_index}", "batch", earliest, now - earliest,
            pid="service", tid="batches",
            size=len(done), makespan_ms=round(schedule.makespan_ms, 6),
        )


def instrument(service, *, store=None):
    """Attach metrics and span recording to ``service``.

    Returns the :class:`ServiceInstrumentation` (also reachable as
    ``service.observer``).  ``store`` additionally binds a
    :class:`repro.store.SortedStore`'s callback metrics into the same
    registry, so one scrape covers the whole server.
    """
    inst = ServiceInstrumentation(service)
    if store is not None:
        store.bind_metrics(inst.registry)
    service.observer = inst
    return inst
