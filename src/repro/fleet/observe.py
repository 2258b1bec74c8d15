"""Fleet instrumentation: metrics, a job event log, and virtual-time samples.

A :class:`FleetObserver` rides along one
:class:`~repro.fleet.scheduler.FleetScheduler` replay.  Each scheduler
hook appends one :class:`~repro.obs.trace.RequestEvent` to the
observer's :class:`~repro.obs.trace.EventLog`, which keeps every event
of the replay, and updates a :class:`~repro.obs.metrics.MetricsRegistry`
of per-tenant counters, wait and slowdown histograms, and pool gauges
(eagerly: samples are taken mid-replay).  The rest are views of the log:

* job spans, built on export -- one ``wait`` span per completed request
  (arrival to the start that completed, on the tenant's track) and one
  ``run``/``preempted`` span per execution (on the track of the pool
  slot it ran on, ``Job.slot`` at event time);
* the inputs of :func:`repro.obs.health.analyze_pool_health`: per-slot
  busy time and executions, the pool capacity integral, the completion
  and eviction series, and the queue-depth peak.

Everything is driven by the scheduler's *virtual* clock, so two replays
of the same trace produce byte-identical metrics files, traces, and
health reports -- the property the golden tests pin down.  With
``metrics_path`` set, the observer also persists its registry through a
:class:`~repro.obs.sampler.MetricsSampler` every
:attr:`FleetObserver.SAMPLE_EVERY_MS` of virtual time.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import EventLog, RequestEvent, Span

__all__ = ["FleetObserver"]

#: Histogram buckets for slowdown ratios (1.0 = never waited).
SLOWDOWN_BUCKETS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0, 100.0)


def _job_spans(event: RequestEvent) -> tuple[Span, ...]:
    """The spans one fleet event stands for (see the module docstring)."""
    kind = event.kind
    if kind not in ("evict", "preempt", "complete"):
        return ()
    tenant = event.detail[0]
    name = f"{tenant}/{event.index}"
    length = event.t_ms - event.start_ms
    if kind == "evict":
        return (Span(name, "evicted", event.start_ms, length, "tenants", tenant),)
    track = f"slot{event.slot}"
    n = event.detail[1]
    if kind == "preempt":
        return (Span(name, "preempted", event.start_ms, length, "pool", track,
                     (("n", n), ("tenant", tenant))),)
    wait = event.start_ms - event.detail[2]
    run = Span(name, "run", event.start_ms, length, "pool", track,
               (("n", n), ("tenant", tenant), ("wait_ms", round(wait, 6))))
    if wait > 0:
        return (run, Span(name, "wait", event.detail[2], wait, "tenants", tenant))
    return (run,)


class FleetObserver:
    """Observe one fleet replay; see the module docstring for outputs.

    ``metrics_path``, an optional NDJSON file, gets a sample of the
    registry every :attr:`SAMPLE_EVERY_MS` of virtual time and at the end.
    """

    #: Virtual-time sampling cadence of ``metrics_path``.
    SAMPLE_EVERY_MS = 50.0

    def __init__(self, *, metrics_path=None):
        self.registry = MetricsRegistry()
        #: Every event of the replay; spans are built from it on export.
        self.spans = EventLog(_job_spans, capacity=None)
        self._log = self.spans.append
        self._sampler = None if metrics_path is None else MetricsSampler(
            self.registry, metrics_path
        )
        self._next_sample_ms = 0.0

        reg = self.registry
        tenant = ("tenant",)
        self.arrivals, self.completions, self.evictions, self.preemptions = (
            reg.counter(name, f"{what}, per tenant", tenant)
            for name, what in (
                ("repro_fleet_arrivals_total", "Requests arrived"),
                ("repro_fleet_completed_total", "Requests completed"),
                ("repro_fleet_evicted_total", "Requests evicted"),
                ("repro_fleet_preemptions_total", "Preemption displacements"),
            )
        )
        self.wait_ms = reg.histogram(
            "repro_fleet_wait_ms",
            "Arrival-to-final-start wait of completed requests (virtual ms)",
            tenant,
        )
        self.slowdown = reg.histogram(
            "repro_fleet_slowdown",
            "Sojourn/service ratio of completed requests",
            tenant, buckets=SLOWDOWN_BUCKETS,
        )
        self.pool_devices = reg.gauge(
            "repro_fleet_pool_devices", "Modeled pool size right now")
        self.queue_depth = reg.gauge(
            "repro_fleet_queue_depth", "Jobs queued across all tenants")
        self.running = reg.gauge(
            "repro_fleet_running", "Jobs running across all devices")

    # -- scheduler hooks -----------------------------------------------------

    def _job(self, kind: str, job, now: float, start_ms: float, *detail) -> None:
        """Log one event of ``job``'s life; ``detail`` follows its tenant."""
        self._log(RequestEvent(
            now, kind, job.index, job.slot, start_ms, (job.tenant.name, *detail)
        ))

    def on_begin(self, pool_size: int) -> None:
        """The replay is starting with ``pool_size`` devices."""
        self._log(RequestEvent(0.0, "begin", None, None, 0.0, (pool_size,)))
        self.pool_devices.set(pool_size)

    def on_arrival(self, job, now: float) -> None:
        """One request arrived."""
        self._job("arrive", job, now, now)
        self.arrivals.labels(tenant=job.tenant.name).inc()

    def on_evict(self, job, now: float) -> None:
        """One queued (never started) request was evicted by the policy."""
        self._job("evict", job, now, job.request.arrival_ms)
        self.evictions.labels(tenant=job.tenant.name).inc()

    def on_start(self, job, now: float) -> None:
        """One job began (or restarted) executing on ``job.slot``."""
        self._job("start", job, now, job.request.arrival_ms)

    def on_preempt(self, job, now: float, started_ms: float) -> None:
        """One running job was displaced."""
        self._job("preempt", job, now, started_ms, job.request.n)
        self.preemptions.labels(tenant=job.tenant.name).inc()

    def on_complete(self, job, now: float) -> None:
        """One job ran to completion."""
        arrival = job.request.arrival_ms
        self._job("complete", job, now, job.started_ms, job.request.n, arrival)
        tenant = job.tenant.name
        self.completions.labels(tenant=tenant).inc()
        self.wait_ms.labels(tenant=tenant).observe(job.wait_ms)
        self.slowdown.labels(tenant=tenant).observe(
            (now - arrival) / job.duration_ms if job.duration_ms else 1.0
        )

    def on_pool(self, now: float, size: int) -> None:
        """The autoscaler resized the pool."""
        self._log(RequestEvent(now, "pool", None, None, now, (size,)))
        self.pool_devices.set(size)

    def on_event(self, now: float, queued: int, running: int) -> None:
        """Called after every processed event with the queue and run counts."""
        self._log(RequestEvent(now, "depth", None, None, now, (queued, running)))
        self.queue_depth.set(queued)
        self.running.set(running)
        if self._sampler is not None and now >= self._next_sample_ms:
            self._sampler.sample(now)
            self._next_sample_ms = now + self.SAMPLE_EVERY_MS

    def on_finish(self, now: float) -> None:
        """The replay drained; take the final sample."""
        self._log(RequestEvent(now, "finish", None, None, now))
        if self._sampler is not None:
            self._sampler.sample(now)

    # -- views of the log ----------------------------------------------------

    def _of(self, *kinds: str) -> list[RequestEvent]:
        return [e for e in self.spans.events() if e.kind in kinds]

    @property
    def completions_series(self) -> list[tuple[float, float, str]]:
        """``(t_ms, wait_ms, tenant)`` per completion, for wait trends."""
        return [
            (e.t_ms, e.start_ms - e.detail[2], e.detail[0])
            for e in self._of("complete")
        ]

    @property
    def evictions_series(self) -> list[tuple[float, str]]:
        """``(t_ms, tenant)`` per eviction."""
        return [(e.t_ms, e.detail[0]) for e in self._of("evict")]

    def _slot_usage(self) -> tuple[list[float], list[int]]:
        """Per-slot busy ms (summed per finished execution) and starts."""
        busy: list[float] = []
        jobs: list[int] = []
        for e in self._of("start", "preempt", "complete"):
            if e.kind == "start":
                if e.slot == len(jobs):  # the scheduler opened a slot
                    jobs.append(0)
                    busy.append(0.0)
                jobs[e.slot] += 1
            else:
                busy[e.slot] += e.t_ms - e.start_ms
        return busy, jobs

    @property
    def slot_busy_ms(self) -> list[float]:
        """Per-slot busy time, ms (index = ``Job.slot``)."""
        return self._slot_usage()[0]

    @property
    def slot_jobs(self) -> list[int]:
        """Per-slot executions begun (runs + restarts)."""
        return self._slot_usage()[1]

    @property
    def busy_ms(self) -> float:
        """Total device-busy time across all slots (virtual ms)."""
        return sum(self.slot_busy_ms)

    @property
    def capacity_ms(self) -> float:
        """Pool capacity integral: sum over time of pool size * dt, ms."""
        capacity = now = 0.0
        pool = 0
        for e in self.spans.events():
            if e.t_ms > now:
                capacity += (e.t_ms - now) * pool
                now = e.t_ms
            if e.kind in ("begin", "pool"):
                pool = e.detail[0]
        return capacity

    @property
    def peak_queue_depth(self) -> int:
        """The most jobs queued after any processed event."""
        return max((e.detail[0] for e in self._of("depth")), default=0)
