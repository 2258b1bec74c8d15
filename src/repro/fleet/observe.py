"""Fleet instrumentation: metrics, job spans, and virtual-time samples.

A :class:`FleetObserver` rides along one
:class:`~repro.fleet.scheduler.FleetScheduler` replay and turns its
event stream into the three observability artifacts:

* a :class:`~repro.obs.metrics.MetricsRegistry` of per-tenant counters
  (arrivals / completions / evictions / preemptions), wait and slowdown
  histograms, and pool gauges (devices, queue depth, running jobs);
* a :class:`~repro.obs.trace.SpanRecorder` of job spans -- one ``wait``
  span per completed request (arrival to the start that completed, on
  the tenant's track) and one ``run``/``preempted`` span per execution
  (on the track of the pool slot the scheduler placed it on,
  ``Job.slot``);
* virtual-time series: per-slot busy time and executions, the pool
  capacity integral, and the completion and eviction series -- the
  inputs :func:`repro.obs.health.analyze_pool_health` needs for
  utilization, bubble time, and wait-time trends.

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
from repro.obs.trace import SpanRecorder

__all__ = ["FleetObserver"]

#: Histogram buckets for slowdown ratios (1.0 = never waited).
SLOWDOWN_BUCKETS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0, 100.0)


class FleetObserver:
    """Observe one fleet replay; see the module docstring for outputs.

    Parameters
    ----------
    metrics_path:
        Optional NDJSON file; when given, the registry is sampled into it
        every :attr:`SAMPLE_EVERY_MS` of virtual time (plus a final
        sample).
    """

    #: Virtual-time sampling cadence of ``metrics_path``.
    SAMPLE_EVERY_MS = 50.0
    #: Span ring size: keeps every span of the committed scenarios.
    SPAN_CAPACITY = 65536

    def __init__(self, *, metrics_path=None):
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(capacity=self.SPAN_CAPACITY)
        self._sampler = (
            MetricsSampler(self.registry, metrics_path)
            if metrics_path is not None
            else None
        )
        self._next_sample_ms = 0.0

        reg = self.registry
        tenant = ("tenant",)
        self.arrivals = reg.counter(
            "repro_fleet_arrivals_total", "Requests arrived, per tenant",
            tenant,
        )
        self.completions = reg.counter(
            "repro_fleet_completed_total", "Requests completed, per tenant",
            tenant,
        )
        self.evictions = reg.counter(
            "repro_fleet_evicted_total", "Requests evicted, per tenant",
            tenant,
        )
        self.preemptions = reg.counter(
            "repro_fleet_preemptions_total",
            "Preemption displacements, per tenant", tenant,
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
            "repro_fleet_pool_devices", "Modeled pool size right now"
        )
        self.queue_depth = reg.gauge(
            "repro_fleet_queue_depth", "Jobs queued across all tenants"
        )
        self.running = reg.gauge(
            "repro_fleet_running", "Jobs running across all devices"
        )

        #: Completion series for wait trends: (t_ms, wait_ms, tenant).
        self.completions_series: list[tuple[float, float, str]] = []
        #: Eviction series: (t_ms, tenant).
        self.evictions_series: list[tuple[float, str]] = []
        #: Per-slot busy time, ms (index = ``Job.slot``), summed per
        #: finished execution.
        self.slot_busy_ms: list[float] = []
        #: Per-slot executions begun (runs + restarts).
        self.slot_jobs: list[int] = []
        #: Pool capacity integral: sum over time of pool_size * dt, ms.
        self.capacity_ms = 0.0
        self.peak_queue_depth = 0

        self._now = 0.0
        self._pool = 0

    # -- time base -----------------------------------------------------------

    def _advance(self, now: float) -> None:
        """Integrate capacity time up to ``now``."""
        dt = now - self._now
        if dt > 0:
            self.capacity_ms += dt * self._pool
            self._now = now

    # -- scheduler hooks -----------------------------------------------------

    def on_begin(self, pool_size: int) -> None:
        """The replay is starting with ``pool_size`` devices."""
        self._pool = pool_size
        self.pool_devices.set(pool_size)

    def on_arrival(self, job, now: float) -> None:
        """One request arrived."""
        self._advance(now)
        self.arrivals.labels(tenant=job.tenant.name).inc()

    def on_evict(self, job, now: float) -> None:
        """One queued request was evicted by the policy."""
        self._advance(now)
        self.evictions.labels(tenant=job.tenant.name).inc()
        self.evictions_series.append((now, job.tenant.name))
        self.spans.record(
            f"{job.tenant.name}/{job.index}", "evicted",
            job.request.arrival_ms, now - job.request.arrival_ms,
            pid="tenants", tid=job.tenant.name,
        )

    def on_start(self, job, now: float) -> None:
        """One job began (or restarted) executing."""
        self._advance(now)
        if job.slot == len(self.slot_jobs):  # the scheduler opened a slot
            self.slot_jobs.append(0)
            self.slot_busy_ms.append(0.0)
        self.slot_jobs[job.slot] += 1

    def on_preempt(self, job, now: float, started_ms: float) -> None:
        """One running job was displaced."""
        self._advance(now)
        self.slot_busy_ms[job.slot] += now - started_ms
        self.preemptions.labels(tenant=job.tenant.name).inc()
        self.spans.record(
            f"{job.tenant.name}/{job.index}", "preempted",
            started_ms, now - started_ms,
            pid="pool", tid=f"slot{job.slot}",
            tenant=job.tenant.name, n=job.request.n,
        )

    def on_complete(self, job, now: float) -> None:
        """One job ran to completion."""
        self._advance(now)
        self.slot_busy_ms[job.slot] += now - job.started_ms
        tenant = job.tenant.name
        wait = job.wait_ms
        sojourn = now - job.request.arrival_ms
        slowdown = sojourn / job.duration_ms if job.duration_ms else 1.0
        self.completions.labels(tenant=tenant).inc()
        self.wait_ms.labels(tenant=tenant).observe(wait)
        self.slowdown.labels(tenant=tenant).observe(slowdown)
        self.completions_series.append((now, wait, tenant))
        self.spans.record(
            f"{tenant}/{job.index}", "run",
            job.started_ms, now - job.started_ms,
            pid="pool", tid=f"slot{job.slot}",
            tenant=tenant, n=job.request.n, wait_ms=round(wait, 6),
        )
        if wait > 0:
            self.spans.record(
                f"{tenant}/{job.index}", "wait",
                job.request.arrival_ms, wait,
                pid="tenants", tid=tenant,
            )

    def on_pool(self, now: float, size: int) -> None:
        """The autoscaler resized the pool."""
        self._advance(now)
        self._pool = size
        self.pool_devices.set(size)

    def on_event(self, now: float, queued: int, running: int) -> None:
        """Called after every processed event with the queue and run counts."""
        self._advance(now)
        self.queue_depth.set(queued)
        self.running.set(running)
        self.peak_queue_depth = max(self.peak_queue_depth, queued)
        if self._sampler is not None and now >= self._next_sample_ms:
            self._sampler.sample(now)
            self._next_sample_ms = now + self.SAMPLE_EVERY_MS

    def on_finish(self, now: float) -> None:
        """The replay drained; take the final sample."""
        self._advance(now)
        if self._sampler is not None:
            self._sampler.sample(now)

    # -- derived -------------------------------------------------------------

    @property
    def busy_ms(self) -> float:
        """Total device-busy time across all slots (virtual ms)."""
        return sum(self.slot_busy_ms)
