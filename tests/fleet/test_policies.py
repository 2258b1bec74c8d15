"""Policy behaviour on hand-built traces: each built-in does what it says."""

from __future__ import annotations

import pytest

from repro.errors import SortInputError
from repro.fleet import (
    POLICIES,
    Autoscaler,
    FleetObserver,
    FleetScheduler,
    Tenant,
    Trace,
    TraceRequest,
    make_policy,
)
from repro.fleet.policy import WeightedFairSharePolicy


def _trace(tenants, requests, name="hand"):
    return Trace(name, 0, tuple(tenants), tuple(requests))


def _completion_order(scheduler):
    done = [j for j in scheduler.jobs if j.state == "completed"]
    return [j.index for j in sorted(done, key=lambda j: j.completed_ms)]


#: One request size -> identical durations (~8.6 ms modeled), long next
#: to the sub-millisecond arrival gaps below, so queues actually form and
#: completion order is pure policy.
N = 1 << 16


class TestRegistry:
    def test_builtins_registered(self):
        assert set(POLICIES) == {
            "fifo-priority",
            "weighted-fair",
            "deadline-edf",
        }

    def test_make_policy(self):
        policy = make_policy("weighted-fair")
        assert policy.name == "weighted-fair"
        assert make_policy(policy) is policy
        with pytest.raises(SortInputError, match="unknown policy"):
            make_policy("round-robin")


class TestFifoPriority:
    def test_priority_then_fifo(self):
        high, low = Tenant("high", priority=1), Tenant("low", priority=0)
        # All queued behind one long-running job: arrival order low, high,
        # low -- service order must be high first, then FIFO among low.
        requests = [
            TraceRequest(0.0, "low", N, 1),
            TraceRequest(1.0, "low", N, 2),
            TraceRequest(2.0, "high", N, 3),
            TraceRequest(3.0, "low", N, 4),
        ]
        sched = FleetScheduler(
            _trace([high, low], requests), "fifo-priority", devices=1
        )
        sched.run()
        assert _completion_order(sched) == [0, 2, 1, 3]


class TestWeightedFair:
    def test_equal_weights_alternate(self):
        a, b = Tenant("a"), Tenant("b")
        requests = [TraceRequest(0.0, "a", N, i) for i in range(4)] + [
            TraceRequest(0.0, "b", N, 10 + i) for i in range(4)
        ]
        requests.sort(key=lambda r: r.arrival_ms)
        sched = FleetScheduler(
            _trace([a, b], requests), "weighted-fair", devices=1
        )
        sched.run()
        order = _completion_order(sched)
        owners = ["a" if i < 4 else "b" for i in order]
        # Perfect alternation: never two consecutive jobs from one tenant.
        assert all(x != y for x, y in zip(owners, owners[1:]))

    def test_weights_bias_service(self):
        heavy = Tenant("heavy", weight=2.0)
        light = Tenant("light", weight=1.0)
        requests = [TraceRequest(0.0, "heavy", N, i) for i in range(6)] + [
            TraceRequest(0.0, "light", N, 10 + i) for i in range(6)
        ]
        sched = FleetScheduler(
            _trace([heavy, light], requests), "weighted-fair", devices=1
        )
        sched.run()
        first_six = [
            "heavy" if i < 6 else "light"
            for i in _completion_order(sched)[:6]
        ]
        assert first_six.count("heavy") == 4  # 2:1 service ratio

    def test_idle_tenant_banks_no_credit(self):
        policy = WeightedFairSharePolicy()
        policy.reset()
        # Virtual time has advanced to 100ms of normalised service; "b"
        # appears only now and must enter at the virtual clock, not zero.
        policy._served["a"] = 150.0
        policy._vtime = 100.0
        assert policy._ledger("b") == 100.0


class TestDeadlineEdf:
    def test_earliest_deadline_first(self):
        t = Tenant("t")
        requests = [
            TraceRequest(0.0, "t", N, 1, deadline_ms=500.0),
            TraceRequest(0.0, "t", N, 2, deadline_ms=100.0),
            TraceRequest(0.0, "t", N, 3, deadline_ms=300.0),
        ]
        sched = FleetScheduler(_trace([t], requests), "deadline-edf", devices=1)
        sched.run()
        assert _completion_order(sched) == [1, 2, 0]

    def test_urgent_arrival_preempts_latest_deadline(self):
        t = Tenant("t")
        requests = [
            TraceRequest(0.0, "t", N, 1, deadline_ms=1000.0),
            TraceRequest(0.1, "t", N, 2, deadline_ms=5.0),
        ]
        sched = FleetScheduler(_trace([t], requests), "deadline-edf", devices=1)
        report = sched.run()
        assert report.preemptions == 1
        assert _completion_order(sched) == [1, 0]
        preempted = sched.jobs[0]
        assert preempted.preemptions == 1
        assert preempted.state == "completed"  # restarted and finished

    def test_no_deadline_means_no_preemption(self):
        t = Tenant("t")
        requests = [
            TraceRequest(0.0, "t", N, 1),
            TraceRequest(0.1, "t", N, 2),
        ]
        sched = FleetScheduler(_trace([t], requests), "deadline-edf", devices=1)
        assert sched.run().preemptions == 0

    def test_eviction_drops_least_urgent(self):
        t = Tenant("t")
        # An urgent job runs (deadline 10, so nothing displaces it); the
        # queue bound of 2 fills with deadlines 100 and 900; the arrival
        # at 50 must push out the 900 (tail drop would drop the 50).
        requests = [
            TraceRequest(0.0, "t", N, 1, deadline_ms=10.0),
            TraceRequest(0.1, "t", N, 2, deadline_ms=100.0),
            TraceRequest(0.2, "t", N, 3, deadline_ms=900.0),
            TraceRequest(0.3, "t", N, 4, deadline_ms=50.0),
        ]
        sched = FleetScheduler(
            _trace([t], requests), "deadline-edf", devices=1, queue_bound=2
        )
        report = sched.run()
        assert report.preemptions == 0
        assert report.evicted == 1
        assert sched.jobs[2].state == "evicted"
        assert sched.jobs[3].state == "completed"
        assert _completion_order(sched) == [0, 3, 1]



class TestPoliciesDiffer:
    """One trace on which every pair of built-in policies reports
    differently, exercising eviction under all three and preemption
    (the ``victim`` hook) under deadline-edf, with the observer's
    preempt/evict hooks counting along."""

    HI = Tenant("hi", priority=1)
    #: Weight 2: the lone early "lo" job charges the fair-share ledger
    #: half as much as a "hi" job, so weighted-fair serves "lo" before
    #: the second "hi" job where fifo-priority does not.
    LO = Tenant("lo", weight=2.0)
    REQUESTS = (
        TraceRequest(0.0, "lo", N, 0),  # runs first everywhere
        TraceRequest(0.1, "hi", N, 1),
        TraceRequest(0.2, "hi", N, 2),
        # "hi"'s queue (bound 2) is full: tail drop evicts this arrival;
        # deadline-edf evicts the least urgent queued job (2) instead and
        # preempts the deadline-free job 0 to run this one.
        TraceRequest(0.3, "hi", N, 3, deadline_ms=30.0),
        # More urgent still: deadline-edf preempts job 3 in turn.
        TraceRequest(0.4, "lo", N, 4, deadline_ms=20.0),
    )

    def _replay(self, policy):
        observer = FleetObserver()
        sched = FleetScheduler(
            _trace([self.HI, self.LO], self.REQUESTS),
            policy,
            devices=1,
            queue_bound=2,
            observer=observer,
        )
        report = sched.run()
        evicted = [j.index for j in sched.jobs if j.state == "evicted"]
        return report, _completion_order(sched), evicted, observer

    @staticmethod
    def _per_tenant(counter):
        return {dict(s.labels)["tenant"]: s.value for s in counter.samples()}

    def test_each_pair_of_policies_reports_differently(self):
        runs = {name: self._replay(name) for name in sorted(POLICIES)}
        reports = {name: run[0] for name, run in runs.items()}
        for a in reports:
            for b in reports:
                if a < b:
                    assert reports[a].to_json() != reports[b].to_json(), (a, b)

        fifo, fair, edf = (
            runs[name] for name in ("fifo-priority", "weighted-fair", "deadline-edf")
        )
        # fifo-priority serves both "hi" jobs before "lo"; weighted-fair
        # slips "lo" in between; deadline-edf runs the deadlines first.
        assert fifo[1] == [0, 1, 2, 4]
        assert fair[1] == [0, 1, 4, 2]
        assert edf[1] == [4, 3, 1, 0]
        # Tail drop evicts the arrival; deadline-edf the least urgent job.
        assert fifo[2] == fair[2] == [3]
        assert edf[2] == [2]
        # Only deadline-edf preempts: job 0 for job 3, then job 3 for 4.
        assert fifo[0].preemptions == fair[0].preemptions == 0
        assert edf[0].tenant("lo").preemptions == 1
        assert edf[0].tenant("hi").preemptions == 1
        # Serving "lo" earlier shortens its wait under weighted-fair.
        assert fair[0].tenant("lo").mean_wait_ms < fifo[0].tenant("lo").mean_wait_ms
        # deadline-edf meets both deadlines; the others miss job 4's.
        assert edf[0].tenant("lo").deadline_misses == 0
        assert fifo[0].tenant("lo").deadline_misses == 1
        assert fair[0].tenant("lo").deadline_misses == 1

    def test_observer_sees_evictions_and_preemptions(self):
        for policy in POLICIES:
            report, _order, _evicted, observer = self._replay(policy)
            assert report.evicted == 1
            assert self._per_tenant(observer.evictions) == {"hi": 1.0}
            assert observer.evictions_series == [(0.3, "hi")]
            preempted = [
                span.name for span in observer.spans.spans()
                if span.cat == "preempted"
            ]
            if policy == "deadline-edf":
                assert self._per_tenant(observer.preemptions) == {
                    "lo": 1.0, "hi": 1.0,
                }
                assert preempted == ["lo/0", "hi/3"]
            else:
                assert not self._per_tenant(observer.preemptions)
                assert preempted == []


class TestAutoscaler:
    def test_bounds_validated(self):
        with pytest.raises(SortInputError):
            Autoscaler(min_devices=0)
        with pytest.raises(SortInputError):
            Autoscaler(min_devices=4, max_devices=2)
        with pytest.raises(SortInputError):
            Autoscaler(tick_ms=0.0)

    def test_decisions(self):
        scaler = Autoscaler(min_devices=1, max_devices=4)
        assert scaler.decide(queued=20, running=2, devices=2) == 3
        assert scaler.decide(queued=0, running=0, devices=2) == 1
        assert scaler.decide(queued=2, running=2, devices=2) == 2
        assert scaler.decide(queued=100, running=4, devices=4) == 4

    def test_replay_respects_bounds(self):
        t = Tenant("t")
        requests = [
            TraceRequest(float(i), "t", N, i) for i in range(40)
        ]
        scaler = Autoscaler(min_devices=1, max_devices=3, tick_ms=1.0)
        report = FleetScheduler(
            _trace([t], requests), "fifo-priority", devices=2,
            autoscaler=scaler,
        ).run()
        assert 1 <= report.pool_min <= report.pool_max <= 3
        assert report.completed == 40
