"""Fuzzed mechanism invariants: every policy, adversarial traces.

The scheduler owns the mechanism guarantees (conservation, quota,
progress, single completion) and the policies only express preference --
so the same invariant sweep must hold for every registered policy over
randomised stress traces that force contention, evictions, quota caps,
and preemption.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines import sort
from repro.engines.base import SortRequest
from repro.fleet import (
    POLICIES,
    Autoscaler,
    FifoPriorityPolicy,
    FleetObserver,
    FleetScheduler,
    Tenant,
    Trace,
    TraceRequest,
)
from repro.workloads.traces import TenantLoad, generate_trace
from repro.workloads.generators import paper_workload

def _stress_trace(seed: int) -> Trace:
    """A contention-heavy trace: quotas, deadlines, floods, mixed sizes."""
    loads = [
        TenantLoad(
            tenant=Tenant("greedy", priority=2, weight=2.0, max_concurrency=1),
            rate_hz=220.0,
            sizes="fixed",
            n_min=1 << 16,
            n_max=1 << 16,
        ),
        TenantLoad(
            tenant=Tenant("urgent", priority=1),
            arrivals="mmpp",
            rate_hz=60.0,
            burst_rate_hz=260.0,
            sizes="lognormal",
            size_median=1 << 14,
            n_min=1 << 12,
            n_max=1 << 16,
            deadline_slack_ms=40.0,
        ),
        TenantLoad(
            tenant=Tenant("meek", priority=0, weight=0.5),
            rate_hz=90.0,
            sizes="pareto",
            n_min=1 << 12,
            n_max=1 << 16,
        ),
    ]
    return generate_trace("stress", loads, duration_ms=400.0, seed=seed)


def _run(seed: int, policy: str) -> FleetScheduler:
    scheduler = FleetScheduler(
        _stress_trace(seed),
        policy,
        devices=2,
        queue_bound=4,
    )
    scheduler.run()
    return scheduler


@pytest.fixture(scope="module")
def runs():
    """Every (seed, policy) replay, shared across the invariant sweep."""
    return {
        (seed, policy): _run(seed, policy)
        for seed in (0, 1, 2, 3, 4)
        for policy in sorted(POLICIES)
    }


class TestConservation:
    def test_every_request_ends_exactly_once(self, runs):
        for (seed, policy), sched in runs.items():
            states = [j.state for j in sched.jobs]
            assert set(states) <= {"completed", "evicted"}, (seed, policy)
            for job in sched.jobs:
                expected = 1 if job.state == "completed" else 0
                assert job.completions == expected, (seed, policy, job.index)
                done_spans = [s for s in job.spans if s[2] == "completed"]
                assert len(done_spans) == expected, (seed, policy, job.index)

    def test_contention_actually_happened(self, runs):
        # The sweep is vacuous if the traces never force hard decisions.
        assert any(s.jobs and any(j.state == "evicted" for j in s.jobs)
                   for s in runs.values())
        assert any(any(j.preemptions > 0 for j in s.jobs)
                   for s in runs.values())

    def test_timestamps_are_ordered(self, runs):
        for (seed, policy), sched in runs.items():
            for job in sched.jobs:
                for start, end, _outcome in job.spans:
                    assert job.request.arrival_ms <= start <= end, (
                        seed, policy, job.index,
                    )
                if job.state == "completed":
                    assert job.completed_ms == job.spans[-1][1]


class TestQuota:
    def test_concurrency_never_exceeds_quota(self, runs):
        for (seed, policy), sched in runs.items():
            for tenant in sched.trace.tenants:
                quota = tenant.max_concurrency
                if quota is None:
                    continue
                events = []
                for job in sched.jobs:
                    if job.tenant.name != tenant.name:
                        continue
                    for start, end, _outcome in job.spans:
                        events.append((start, 1))
                        events.append((end, -1))
                events.sort(key=lambda e: (e[0], e[1]))
                live = peak = 0
                for _t, delta in events:
                    live += delta
                    peak = max(peak, live)
                assert peak <= quota, (seed, policy, tenant.name)


class TestPlacement:
    def test_completed_jobs_hold_distinct_slots_of_the_pool(self, runs):
        for (seed, policy), sched in runs.items():
            done = [j for j in sched.jobs if j.state == "completed"]
            assert {j.slot for j in done} <= {0, 1}, (seed, policy)
            for slot in (0, 1):
                finals = sorted(
                    j.spans[-1][:2] for j in done if j.slot == slot
                )
                for (_s, end), (start, _e) in zip(finals, finals[1:]):
                    assert end <= start, (seed, policy, slot)


class TestProgress:
    def test_preempted_requests_eventually_complete(self, runs):
        preempted_seen = 0
        for (seed, policy), sched in runs.items():
            for job in sched.jobs:
                if job.preemptions > 0:
                    preempted_seen += 1
                    assert job.state == "completed", (seed, policy, job.index)
        assert preempted_seen > 0  # the sweep exercised preemption

    def test_preemption_budget_holds(self, runs):
        for (seed, policy), sched in runs.items():
            for job in sched.jobs:
                assert job.preemptions <= sched.max_preemptions


class _StateAudit(FleetObserver):
    """After every event, check the scheduler's queue and slot state
    against the jobs' own states: every arrived queued job sits in
    exactly its tenant's queue, the queued total and per-tenant running
    counts match a recount, and every running job's slot indexes
    itself."""

    def __init__(self):
        super().__init__()
        self.sched: FleetScheduler | None = None
        self.arrived: set[int] = set()
        self.arriving = None
        #: Evictions of an already-queued job rather than the arrival.
        self.queued_evictions = 0
        self.audits = 0

    def on_arrival(self, job, now):
        super().on_arrival(job, now)
        self.arrived.add(job.index)
        self.arriving = job

    def on_evict(self, job, now):
        super().on_evict(job, now)
        self.queued_evictions += job is not self.arriving

    def on_event(self, now, queued, running):
        super().on_event(now, queued, running)
        sched = self.sched
        queues = sched._queues
        held = [j for j in sched._slots if j is not None]
        for job in sched.jobs:
            homes = [name for name, q in queues.items() if job in q]
            waiting = job.state == "queued" and job.index in self.arrived
            assert homes == ([job.tenant.name] if waiting else []), (
                now, job.index, job.state,
            )
            if job.state == "running":
                assert sched._slots[job.slot] is job, (now, job.index)
        assert sched._queued == sum(len(q) for q in queues.values()) == queued
        assert all(j.state == "running" for j in held), now
        assert len(held) == running
        for tenant in sched.trace.tenants:
            name = tenant.name
            assert sched._running_by[name] == sum(
                j.tenant.name == name for j in held
            ), (now, name)
        self.audits += 1


def _audited(trace: Trace, policy, **kwargs) -> _StateAudit:
    audit = _StateAudit()
    sched = FleetScheduler(trace, policy, observer=audit, **kwargs)
    audit.sched = sched
    sched.run()
    assert audit.audits > len(trace.requests)  # every arrival was audited
    return audit


class _EvictOldest(FifoPriorityPolicy):
    """Head drop: evict the tenant's oldest evictable job, not the arrival."""

    name = "evict-oldest"

    def evict(self, arriving, queued, now_ms):
        return queued[0] if queued else arriving


class TestTenantCounters:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_counters_match_a_recount_after_every_event(self, policy):
        audits = [
            _audited(_stress_trace(seed), policy, devices=2, queue_bound=4)
            for seed in (0, 1, 2, 3, 4)
        ]
        # The stress traces evict and hit the quota under every policy.
        jobs = [j for audit in audits for j in audit.sched.jobs]
        assert any(j.state == "evicted" for j in jobs)
        if POLICIES[policy].preemptive:
            assert any(j.preemptions > 0 for j in jobs)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_counters_hold_on_the_autoscaled_replay(self, policy):
        _audited(
            _stress_trace(9),
            policy,
            devices=1,
            autoscaler=Autoscaler(min_devices=1, max_devices=3, tick_ms=10.0),
            queue_bound=4,
        )

    def test_counters_hold_when_queued_jobs_are_evicted(self):
        audit = _audited(
            _stress_trace(0), _EvictOldest(), devices=2, queue_bound=4
        )
        assert audit.queued_evictions > 0


class TestPoolBounds:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_autoscaled_replay_keeps_invariants(self, policy):
        sched = FleetScheduler(
            _stress_trace(9),
            policy,
            devices=1,
            autoscaler=Autoscaler(min_devices=1, max_devices=3, tick_ms=10.0),
            queue_bound=4,
        )
        report = sched.run()
        assert 1 <= report.pool_min <= report.pool_max <= 3
        assert all(j.state in ("completed", "evicted") for j in sched.jobs)
        assert report.completed + report.evicted == report.submitted


class TestOutputIdentity:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_fleet_outputs_match_direct_sort(self, policy):
        tenant = Tenant("t", max_concurrency=2)
        requests = tuple(
            TraceRequest(float(i), "t", 256 << (i % 3), seed=100 + i)
            for i in range(9)
        )
        sched = FleetScheduler(
            Trace("identity", 0, (tenant,), requests),
            policy,
            devices=2,
            execute=True,
        )
        report = sched.run()
        assert report.completed == len(requests)
        for job in sched.jobs:
            direct = sort(
                SortRequest(
                    values=paper_workload(job.request.n, seed=job.request.seed)
                )
            ).values
            np.testing.assert_array_equal(sched.results[job.index], direct)
        assert report.telemetry is not None
        assert report.telemetry.n == sum(r.n for r in requests)
        assert report.telemetry.requests == len(requests)
