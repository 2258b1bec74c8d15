"""The virtual-time fleet scheduler: mechanism under pluggable policy.

:class:`FleetScheduler` replays one :class:`~repro.workloads.traces.Trace`
through a discrete-event simulation in *virtual milliseconds*: arrivals,
completions, and autoscaler ticks are heap events, and a job's service
time is its planner-predicted cost (the shared single-device
:func:`repro.planner.default_planner` over the paper's calibrated cost
models, one modeled device per fleet slot).
No wall clock ever enters a decision, which is what makes every replay
bit-reproducible: same trace + same policy = the same event sequence,
the same statistics, byte for byte.

The scheduler owns the *mechanism* invariants -- whatever the policy
answers:

* **conservation** -- every submitted request ends exactly once, as
  ``completed`` or ``evicted`` (``Job.completions`` counts terminal
  executions and never passes 1);
* **quota** -- a tenant with ``max_concurrency`` never has more than that
  many jobs running (policies only ever see quota-eligible candidates);
* **progress** -- a preempted job re-queues with restart semantics and
  becomes non-displaceable after :attr:`FleetScheduler.max_preemptions`
  displacements, so preempted requests always eventually complete;
* **work safety** -- shrinking the pool (autoscaler) never cancels a
  running job; the pool drains to the target instead.

They hold because every policy answer must be a job the hook was
offered (or ``None`` from ``victim``); any other answer raises
:class:`SortInputError`.

The scheduler also places: each execution runs on a pool slot, the
lowest slot id no running job holds, recorded as ``Job.slot`` -- the
device an observer's span and per-slot busy time are charged to.

``execute=True`` additionally sorts every completed request's seeded
workload: the job runs the plan it was priced with
(:func:`repro.engines.auto.execute`), and the sorted arrays are kept so
tests can assert them bit-identical to direct sorts; the default leaves
execution modeled (costs only), which is what benchmarks want.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.engines.auto import execute
from repro.engines.base import SortRequest, SortTelemetry
from repro.errors import SortInputError
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.policy import POLICIES, SchedulingPolicy, make_policy
from repro.fleet.stats import FleetReport, TenantStats, jain_index
from repro.planner import SortPlan, default_planner
from repro.workloads.generators import generate_keys
from repro.workloads.traces import Tenant, Trace, TraceRequest

__all__ = ["Job", "FleetScheduler", "compare_policies"]

#: Service time charged for zero-cost (n <= 1) requests, so completions
#: still strictly follow their starts in the event order.
_EPS_MS = 1e-6


@dataclass(eq=False)
class Job:
    """One trace request's lifecycle inside the scheduler.

    Jobs compare by identity: each one is a distinct lifecycle, whatever
    its fields say.
    """

    index: int
    request: TraceRequest
    tenant: Tenant
    #: The single-device plan that prices the job and, executed, runs it.
    plan: SortPlan
    #: ``queued`` | ``running`` | ``completed`` | ``evicted``.
    state: str = "queued"
    #: Virtual time the current/last execution began (None before any).
    started_ms: float | None = None
    #: Pool slot of the current or most recent execution (None before any).
    slot: int | None = None
    #: Virtual time the job completed (None until it does).
    completed_ms: float | None = None
    #: Executions that ran to completion (the invariant caps this at 1).
    completions: int = 0
    #: Times this job was displaced by a preemption.
    preemptions: int = 0
    #: Guards stale completion events after a preemption: a completion
    #: only lands if its epoch still matches the job's.
    epoch: int = 0

    @cached_property
    def duration_ms(self) -> float:
        """Modeled service time: the plan's cost, at least :data:`_EPS_MS`."""
        return max(self.plan.cost_ms, _EPS_MS)

    @property
    def wait_ms(self) -> float:
        """Arrival to the start of the execution that completed."""
        if self.started_ms is None:
            return 0.0
        return self.started_ms - self.request.arrival_ms


class FleetScheduler:
    """Replay one trace under one policy on a modeled device pool.

    Each distinct request size is planned once per replay, at
    construction, by the process-wide ``default_planner(1)``; jobs of that
    size share the plan, which is both their service time and, with
    ``execute=True``, what runs.  Replays share the planner's plan cache,
    and a scheduler built after a registry change sees the new engines.

    Parameters
    ----------
    trace:
        The workload to replay (arrival-ordered requests).
    policy:
        A :data:`~repro.fleet.policy.POLICIES` name or a policy instance
        (reset before the run).
    devices:
        Initial pool size (and fixed size when no autoscaler is given).
    autoscaler:
        Optional :class:`~repro.fleet.autoscaler.Autoscaler`; when given,
        pool size follows its decisions at ``tick_ms`` cadence.
    queue_bound:
        Per-tenant queue depth that triggers the policy's eviction hook.
    execute:
        Run each completed request's plan on its seeded workload and keep
        the sorted arrays in :attr:`results`.
    observer:
        Optional :class:`~repro.fleet.observe.FleetObserver` (or any
        object with its hook methods).  The scheduler calls it on every
        arrival / start / preemption / completion / eviction / pool
        resize and once per processed event with the queued and running
        counts, all in virtual time, so the observer's metrics, spans, and
        samples are as reproducible as the replay itself.
    """

    #: Displacement budget per job; at the cap a job can no longer be
    #: chosen as a victim (the progress guarantee).
    max_preemptions = 2

    def __init__(
        self,
        trace: Trace,
        policy: str | SchedulingPolicy = "weighted-fair",
        *,
        devices: int = 4,
        autoscaler: Autoscaler | None = None,
        queue_bound: int = 64,
        execute: bool = False,
        observer=None,
    ):
        if devices < 1:
            raise SortInputError(f"fleet needs devices >= 1, got {devices}")
        if queue_bound < 1:
            raise SortInputError(
                f"fleet needs queue_bound >= 1, got {queue_bound}"
            )
        self.trace = trace
        self.policy = make_policy(policy)
        self.autoscaler = autoscaler
        self.queue_bound = queue_bound
        self.execute = execute
        self.observer = observer
        self.pool_size = (
            autoscaler.clamp(devices) if autoscaler else devices
        )
        planner = default_planner(1)
        tenants = {tenant.name: tenant for tenant in trace.tenants}
        plans: dict[int, SortPlan] = {}
        self.jobs: list[Job] = []
        for index, request in enumerate(trace.requests):
            plan = plans.get(request.n)
            if plan is None:
                # Plans depend only on the shape: no workload keys needed.
                plan = plans[request.n] = planner.plan(
                    SortRequest(keys=np.zeros(request.n, dtype=np.float32))
                )
            self.jobs.append(Job(index, request, tenants[request.tenant], plan))
        #: Sorted output per completed job index (``execute=True`` only).
        self.results: dict[int, np.ndarray] = {}
        #: Queued jobs per tenant, in queue order (dicts as ordered sets).
        self._queues: dict[str, dict[Job, None]] = {name: {} for name in tenants}
        self._queued = 0
        #: Running jobs by pool slot; ``None`` marks a free slot.
        self._slots: list[Job | None] = []
        self._running_by = dict.fromkeys(tenants, 0)
        self._events: list[tuple[float, int, str, Job | None, int]] = []
        self._seq = 0
        self._now = 0.0
        self._pool_timeline: list[tuple[float, int]] = [(0.0, self.pool_size)]
        self._arrivals_pending = 0
        self._telemetry: SortTelemetry | None = None
        self._ran = False

    # -- event plumbing ------------------------------------------------------

    def _push(
        self, time_ms: float, kind: str, job: Job | None, epoch: int = 0
    ) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time_ms, self._seq, kind, job, epoch))

    def _under_quota(self, tenant: Tenant) -> bool:
        quota = tenant.max_concurrency
        return quota is None or self._running_by[tenant.name] < quota

    def _running(self) -> list[Job]:
        return [job for job in self._slots if job is not None]

    def _offered(self, hook: str, answer, offered: list[Job]) -> Job:
        """``answer``, if it is one of the jobs a policy hook was offered."""
        if answer not in offered:
            what = f"job {answer.index}" if isinstance(answer, Job) else repr(answer)
            raise SortInputError(
                f"policy {self.policy.name!r}: {hook} answered {what}, "
                f"which is not one of the {len(offered)} jobs it was offered"
            )
        return answer

    # -- the run -------------------------------------------------------------

    def run(self) -> FleetReport:
        """Replay the whole trace and return its :class:`FleetReport`."""
        if self._ran:
            raise SortInputError(
                "FleetScheduler instances are single-shot; build a new one"
            )
        self._ran = True
        self.policy.reset()
        if self.observer is not None:
            self.observer.on_begin(self.pool_size)
        for job in self.jobs:
            self._push(job.request.arrival_ms, "arrival", job)
        self._arrivals_pending = len(self.jobs)
        if self.autoscaler is not None:
            self._push(self.autoscaler.tick_ms, "tick", None)
        while self._events:
            time_ms, _seq, kind, job, epoch = heapq.heappop(self._events)
            if kind == "tick" and not (
                self._queued or self._arrivals_pending or self._running()
            ):
                continue  # the trailing tick: the replay ended before it
            self._now = max(self._now, time_ms)
            if kind == "arrival":
                assert job is not None
                self._arrivals_pending -= 1
                if self.observer is not None:
                    self.observer.on_arrival(job, self._now)
                self._admit(job)
            elif kind == "done":
                assert job is not None
                self._maybe_complete(job, epoch)
            elif kind == "tick":
                self._autoscale()
            self._dispatch()
            if self.observer is not None:
                self.observer.on_event(
                    self._now, self._queued, len(self._running())
                )
        if self.observer is not None:
            self.observer.on_finish(self._now)
        return self._report()

    def _admit(self, job: Job) -> None:
        queue = self._queues[job.tenant.name]
        if len(queue) >= self.queue_bound:
            # Preempted jobs are off the table: they already lost device
            # time once, and evicting them would break the progress
            # guarantee that preempted requests eventually complete.
            candidates = [j for j in queue if j.preemptions == 0]
            answer = self.policy.evict(job, candidates, self._now)
            victim = self._offered("evict", answer, [job, *candidates])
            victim.state = "evicted"
            if self.observer is not None:
                self.observer.on_evict(victim, self._now)
            if victim is not job:
                del queue[victim]
                queue[job] = None
            return
        queue[job] = None
        self._queued += 1

    def _start(self, job: Job) -> None:
        del self._queues[job.tenant.name][job]
        self._queued -= 1
        self._running_by[job.tenant.name] += 1
        job.state = "running"
        job.started_ms = self._now
        job.epoch += 1
        if None not in self._slots:
            self._slots.append(None)
        job.slot = self._slots.index(None)
        self._slots[job.slot] = job
        self.policy.on_start(job, self._now)
        if self.observer is not None:
            self.observer.on_start(job, self._now)
        self._push(self._now + job.duration_ms, "done", job, job.epoch)

    def _preempt(self, victim: Job) -> None:
        self._slots[victim.slot] = None
        self._running_by[victim.tenant.name] -= 1
        self._queues[victim.tenant.name][victim] = None
        self._queued += 1
        victim.state = "queued"
        victim.epoch += 1  # invalidates the in-flight completion event
        victim.preemptions += 1
        if self.observer is not None:
            self.observer.on_preempt(victim, self._now, victim.started_ms)
        victim.started_ms = None
        self.policy.on_preempt(victim, self._now)

    def _maybe_complete(self, job: Job, epoch: int) -> None:
        if job.state != "running" or job.epoch != epoch:
            return  # stale completion: the job was preempted meanwhile
        self._slots[job.slot] = None
        self._running_by[job.tenant.name] -= 1
        job.state = "completed"
        job.completed_ms = self._now
        job.completions += 1
        self.policy.on_complete(job, self._now)
        if self.observer is not None:
            self.observer.on_complete(job, self._now)
        if self.execute:
            self._execute(job)

    def _execute(self, job: Job) -> None:
        keys = generate_keys("uniform", job.request.n, seed=job.request.seed)
        result = execute(job.plan.engine, SortRequest(keys=keys), job.plan)
        self.results[job.index] = result.values
        if self._telemetry is None:
            self._telemetry = result.telemetry
        else:
            self._telemetry.add(result.telemetry)

    def _dispatch(self) -> None:
        while self._queued:
            eligible = [
                j for tenant in self.trace.tenants if self._under_quota(tenant)
                for j in self._queues[tenant.name]
            ]
            if not eligible:
                return
            running = self._running()
            full = len(running) >= self.pool_size
            if full and not self.policy.preemptive:
                return
            answer = self.policy.select(eligible, running, self._now)
            job = self._offered("select", answer, eligible)
            if full:
                preemptible = [
                    j for j in running if j.preemptions < self.max_preemptions
                ]
                if not preemptible:
                    return
                victim = self.policy.victim(job, preemptible, self._now)
                if victim is None:
                    return
                self._preempt(self._offered("victim", victim, preemptible))
            self._start(job)

    def _autoscale(self) -> None:
        assert self.autoscaler is not None
        running = len(self._running())
        target = self.autoscaler.decide(
            queued=self._queued, running=running, devices=self.pool_size
        )
        if target != self.pool_size:
            self.pool_size = target
            self._pool_timeline.append((self._now, target))
            if self.observer is not None:
                self.observer.on_pool(self._now, target)
        if self._queued or running or self._arrivals_pending:
            self._push(self._now + self.autoscaler.tick_ms, "tick", None)

    # -- reporting -----------------------------------------------------------

    def _report(self) -> FleetReport:
        per_tenant: list[TenantStats] = []
        for tenant in self.trace.tenants:
            jobs = [j for j in self.jobs if j.tenant.name == tenant.name]
            done = [j for j in jobs if j.state == "completed"]
            waits = [j.wait_ms for j in done]
            slowdowns = [
                (j.completed_ms - j.request.arrival_ms) / j.duration_ms
                for j in done
            ]
            arrivals = [j.request.arrival_ms for j in jobs]
            ends = [j.completed_ms for j in done]
            misses = sum(
                1
                for j in done
                if j.request.deadline_ms is not None
                and j.completed_ms > j.request.deadline_ms
            )
            per_tenant.append(
                TenantStats.from_waits(
                    tenant.name,
                    submitted=len(jobs),
                    completed=len(done),
                    evicted=sum(1 for j in jobs if j.state == "evicted"),
                    preemptions=sum(j.preemptions for j in jobs),
                    deadline_misses=misses,
                    waits_ms=waits,
                    slowdowns=slowdowns,
                    makespan_ms=(
                        max(ends) - min(arrivals) if done and arrivals else 0.0
                    ),
                    work_ms=sum(j.duration_ms for j in done),
                )
            )
        shares = [t.mean_slowdown for t in per_tenant if t.completed > 0]
        pool_sizes = [size for _t, size in self._pool_timeline]
        return FleetReport(
            trace=self.trace.name,
            seed=self.trace.seed,
            policy=self.policy.name,
            devices=self._pool_timeline[0][1],
            makespan_ms=self._now,
            fairness=jain_index(shares),
            tenants=tuple(per_tenant),
            pool_min=min(pool_sizes),
            pool_max=max(pool_sizes),
            pool_timeline=tuple(self._pool_timeline),
            telemetry=self._telemetry,
        )


def compare_policies(
    trace: Trace,
    *,
    devices: int = 4,
    autoscaler: Autoscaler | None = None,
    queue_bound: int = 64,
) -> dict[str, FleetReport]:
    """Replay ``trace`` under every built-in policy.

    Returns ``{policy name: report}`` in policy-name order.
    """
    return {
        name: FleetScheduler(
            trace,
            name,
            devices=devices,
            autoscaler=autoscaler,
            queue_bound=queue_bound,
        ).run()
        for name in sorted(POLICIES)
    }
