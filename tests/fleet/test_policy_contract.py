"""A policy answer outside what the scheduler offered raises at once.

``select`` must name one of the queued jobs it was offered, ``victim``
``None`` or one of the offered preemptible jobs, ``evict`` the arrival
or one of the offered candidates.  Each stub below breaks one of those
rules; the replay must raise :class:`SortInputError` naming the policy,
on a fixed pool and under an autoscaler alike, instead of idling a job
forever or breaking the preemption budget.  Replays run on a daemon
thread with a join timeout, so a regression that hangs fails the test
instead of the suite.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import SortInputError
from repro.fleet import (
    Autoscaler,
    FleetScheduler,
    SchedulingPolicy,
    Tenant,
    Trace,
    TraceRequest,
)

#: Hang ceiling for one replay (no pytest-timeout dependency).
TIMEOUT_S = 10.0

#: ~8.6 ms modeled per job: long next to the sub-millisecond arrival
#: gaps below, so queues form before anything completes.
N = 1 << 16

POOLS = {
    "fixed": {"devices": 2},
    "autoscaled": {"devices": 2, "autoscaler": Autoscaler(tick_ms=10.0)},
}


def _run_bounded(scheduler: FleetScheduler):
    """``scheduler.run()`` on a daemon thread; fail if it outlives the ceiling."""
    outcome = {}

    def replay():
        try:
            outcome["report"] = scheduler.run()
        except Exception as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=replay, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"replay still running after {TIMEOUT_S} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["report"]


def _scheduler(tenants, requests, policy, pool, **kwargs) -> FleetScheduler:
    trace = Trace("contract", 0, tuple(tenants), tuple(requests))
    scheduler = FleetScheduler(trace, policy, **POOLS[pool], **kwargs)
    policy.jobs = scheduler.jobs
    return scheduler


def _waiting(jobs, now_ms):
    """Jobs that have arrived and sit in some queue."""
    return [
        j for j in jobs
        if j.state == "queued" and j.request.arrival_ms <= now_ms
    ]


class _Stub(SchedulingPolicy):
    """FIFO by index unless a subclass breaks one rule."""

    #: The replay's jobs, set by :func:`_scheduler`.
    jobs: list

    def select(self, queued, running, now_ms):
        return min(queued, key=lambda j: j.index)


class DeclinesToSelect(_Stub):
    name = "declines-to-select"

    def select(self, queued, running, now_ms):
        return None


class SelectsOverQuota(_Stub):
    """Picks a queued job its tenant's quota kept out of the offer."""

    name = "selects-over-quota"

    def select(self, queued, running, now_ms):
        hidden = [j for j in _waiting(self.jobs, now_ms) if j not in queued]
        return hidden[0] if hidden else super().select(queued, running, now_ms)


class PreemptsPastBudget(_Stub):
    """Preempts whenever the pool is full, naming a running job that has
    used up its preemption budget whenever there is one."""

    name = "preempts-past-budget"
    preemptive = True

    def victim(self, candidate, running, now_ms):
        spent = [
            j for j in self.jobs
            if j.state == "running"
            and j.preemptions >= FleetScheduler.max_preemptions
        ]
        return spent[0] if spent else running[0]


class EvictsAnotherTenant(_Stub):
    name = "evicts-another-tenant"

    def evict(self, arriving, queued, now_ms):
        others = [
            j for j in _waiting(self.jobs, now_ms)
            if j.tenant.name != arriving.tenant.name
        ]
        return others[0]


@pytest.mark.parametrize("pool", sorted(POOLS))
class TestOutOfOfferAnswersRaise:
    def test_select_returning_none(self, pool):
        tenant = Tenant("t")
        scheduler = _scheduler(
            [tenant], [TraceRequest(0.0, "t", N, 1)], DeclinesToSelect(), pool
        )
        with pytest.raises(SortInputError, match="declines-to-select.*select"):
            _run_bounded(scheduler)
        assert [j.state for j in scheduler.jobs] == ["queued"]

    def test_select_returning_an_over_quota_job(self, pool):
        capped, free = Tenant("capped", max_concurrency=1), Tenant("free")
        requests = [
            TraceRequest(0.0, "capped", N, 1),
            TraceRequest(0.1, "capped", N, 2),
            TraceRequest(0.2, "free", N, 3),
        ]
        scheduler = _scheduler(
            [capped, free], requests, SelectsOverQuota(), pool
        )
        with pytest.raises(SortInputError, match="selects-over-quota.*job 1"):
            _run_bounded(scheduler)
        assert [j.state for j in scheduler.jobs] == [
            "running", "queued", "queued",
        ]

    def test_victim_past_its_preemption_budget(self, pool):
        tenant = Tenant("t")
        requests = [
            TraceRequest(0.1 * i, "t", N, i) for i in range(12)
        ]
        scheduler = _scheduler([tenant], requests, PreemptsPastBudget(), pool)
        with pytest.raises(SortInputError, match="preempts-past-budget.*victim"):
            _run_bounded(scheduler)
        assert all(
            j.preemptions <= FleetScheduler.max_preemptions
            for j in scheduler.jobs
        )

    def test_evict_of_another_tenants_job(self, pool):
        a, b = Tenant("a"), Tenant("b")
        requests = [
            TraceRequest(0.0, "a", N, 1),
            TraceRequest(0.1, "b", N, 2),
            TraceRequest(0.2, "a", N, 3),
            TraceRequest(0.3, "b", N, 4),
            TraceRequest(0.4, "a", N, 5),
        ]
        scheduler = _scheduler(
            [a, b], requests, EvictsAnotherTenant(), pool, queue_bound=1
        )
        with pytest.raises(SortInputError, match="evicts-another-tenant.*job 3"):
            _run_bounded(scheduler)
        assert "evicted" not in {j.state for j in scheduler.jobs}
