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
  event log touch the pipeline, through two hooks the service calls
  per executed request, on the worker thread between sorts
  (:meth:`ServiceInstrumentation.on_execute`, per-device busy time only),
  and per finalized batch, on the event loop
  (:meth:`ServiceInstrumentation.on_batch`: the histograms, which are
  lifetime totals, and one :class:`~repro.obs.trace.RequestEvent` per
  completed request plus one for the batch -- no span).

An export (``{"op": "trace"}``, ``serve_forever(trace_out=...)``) builds
spans from the retained events, on a wall-clock timeline (milliseconds
since the instrumentation was created): per request a ``coalesce`` span
(submit to batch seal) and a ``queue`` span (seal to execution start),
then the batch's modeled ``upload``/``sort``/``download`` stage spans
laid out from its :class:`~repro.cluster.scheduler.ClusterSchedule` so
the trace ends where the batch finalized.
"""

from __future__ import annotations

import time

from repro.engines.cost import measured_cost_ms
from repro.obs.metrics import DEFAULT_MS_BUCKETS, MetricsRegistry
from repro.obs.trace import EventLog, RequestEvent, Span
from repro.planner.planner import default_planner
from repro.service.config import RETRY_AFTER_MS

__all__ = ["ServiceInstrumentation", "instrument"]

#: Batch-size histogram buckets (powers of two up to a large batch).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: Relative-error buckets for predicted-vs-measured plan cost.
ERROR_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


def _batch_spans(event: RequestEvent) -> list[Span]:
    """The spans one service event stands for (see the module docstring)."""
    if event.kind == "complete":
        batch, engine, coalesce_ms, queue_wait_ms = event.detail
        tid = f"req{event.index}"
        name = f"batch{batch}/{tid}"
        return [
            Span(name, "coalesce", event.start_ms, coalesce_ms,
                 "requests", tid, (("engine", engine),)),
            Span(name, "queue", event.start_ms + coalesce_ms,
                 max(queue_wait_ms - coalesce_ms, 0.0), "requests", tid),
        ]
    batch, size, schedule = event.detail
    origin = event.t_ms - schedule.makespan_ms
    spans = [
        Span(f"batch{batch}/{stage.task}", stage.stage,
             origin + stage.start_ms, stage.duration_ms,
             "devices", f"dev{stage.device}")
        for stage in schedule.events
    ]
    spans.append(Span(
        f"batch{batch}", "batch", event.start_ms,
        event.t_ms - event.start_ms, "service", "batches",
        (("makespan_ms", round(schedule.makespan_ms, 6)), ("size", size)),
    ))
    return spans


class ServiceInstrumentation:
    """One service's metrics registry and request event log.

    Construct through :func:`instrument`, which also points
    ``service.observer`` here so the pipeline hooks fire.
    """

    #: Event ring size: each completed request is one event and each
    #: batch one more, so an export shows at least the last 2048 requests.
    TRACE_CAPACITY = 4096

    def __init__(self, service):
        self.service = service
        self.registry = MetricsRegistry()
        #: The request events; their spans are built only on export.
        self.spans = EventLog(_batch_spans, self.TRACE_CAPACITY)
        self._t0 = time.perf_counter()

        reg = self.registry

        def s(field_name):
            return lambda: getattr(service.stats, field_name)

        # The service plans with the process-wide single-device planner,
        # so the cache metrics count every caller of default_planner(1).
        cache = default_planner(1).cache
        for metric, name, help_text, fn in (
            (reg.counter, "repro_service_submitted_total", "Requests admitted",
             s("submitted")),
            (reg.counter, "repro_service_completed_total", "Requests completed",
             s("completed")),
            (reg.counter, "repro_service_rejected_total",
             "Requests rejected by admission control", s("rejected")),
            (reg.counter, "repro_service_failed_total", "Requests that raised",
             s("failed")),
            (reg.counter, "repro_service_batches_total", "Batches finalized",
             s("batches")),
            (reg.counter, "repro_service_makespan_ms_total",
             "Modeled batch makespans, summed", s("service_makespan_ms")),
            (reg.counter, "repro_service_serialized_ms_total",
             "Modeled all-stages-serialized yardstick, summed",
             s("serialized_ms")),
            (reg.gauge, "repro_service_pending",
             "Requests admitted but not yet completed (queue depth)",
             lambda: service.pending),
            (reg.gauge, "repro_service_largest_batch", "Largest batch so far",
             s("largest_batch")),
            (reg.gauge, "repro_service_uptime_seconds",
             "Seconds since the service's stats record started",
             lambda: service.stats.live_uptime_s()),
            (reg.gauge, "repro_service_retry_after_ms",
             "Back-off hint rejected clients receive", lambda: RETRY_AFTER_MS),
            (reg.counter, "repro_planner_cache_hits_total", "Plan-cache hits",
             lambda: cache.hits),
            (reg.counter, "repro_planner_cache_misses_total",
             "Plan-cache misses", lambda: cache.misses),
            (reg.gauge, "repro_planner_cache_hit_ratio",
             "Plan-cache hits over lookups", lambda: cache.hit_ratio),
        ):
            metric(name, help_text, fn=fn)
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
        request's plan error; the log gets one ``complete`` event per
        request (its submit instant, device and waits) and one ``batch``
        event (its earliest submit, size and modeled schedule) stamped
        at the finalize instant.
        """
        now = self.now_ms()
        batch_index = self.service.stats.batches
        self.batch_size.observe(len(done))
        append = self.spans.append
        earliest = now
        for i, (ticket, device) in enumerate(done):
            queue_wait_ms = ticket.result.telemetry.queue_wait_ms
            self.queue_wait.observe(queue_wait_ms)
            self.coalesce.observe(ticket.coalesce_ms)
            if ticket.plan is not None:
                executed = measured_cost_ms(ticket.result, ticket.request)
                if executed:
                    self.plan_error.observe(
                        abs(ticket.plan.cost_ms - executed) / executed
                    )
            submit = (ticket.submitted - self._t0) * 1e3
            earliest = min(earliest, submit)
            append(RequestEvent(now, "complete", i, device, submit, (
                batch_index, ticket.exec_engine, ticket.coalesce_ms,
                queue_wait_ms,
            )))
        append(RequestEvent(
            now, "batch", None, None, earliest, (batch_index, len(done), schedule)
        ))


def instrument(service, *, store=None):
    """Attach metrics and request event recording to ``service``.

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
