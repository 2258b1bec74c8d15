"""An executed fleet job runs the plan it was priced with.

The virtual clock charges each job its single-device plan's cost (one
modeled device per pool slot).  With ``execute=True`` the job must then
run exactly that plan -- the same engine on one device -- rather than a
fresh plan with a larger device cap: above 38720 pairs the cap-4 planner
would pick ``sharded-abisort`` on 4 devices for a job priced as one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import repro
from repro.engines import SortRequest, SortTelemetry
from repro.fleet import FleetScheduler, Tenant, Trace, TraceRequest
from repro.workloads.generators import generate_keys

#: Sizes on both sides of the 38720-pair point where the cap-1 and cap-4
#: plans start to differ.
SIZES = (2048, 40960, 65536)


def _request(job) -> SortRequest:
    return SortRequest(
        keys=generate_keys("uniform", job.request.n, seed=job.request.seed)
    )


def _modeled(telemetry: SortTelemetry) -> SortTelemetry:
    return replace(telemetry, wall_time_s=0.0)


def test_executed_jobs_run_their_priced_plans():
    requests = tuple(
        TraceRequest(100.0 * i, "t", n, seed=7 + i)
        for i, n in enumerate(SIZES)
    )
    # One slot, spaced arrivals: jobs complete in trace order, so the
    # expected telemetry sums in the order the replay summed it.
    sched = FleetScheduler(
        Trace("executed-plan", 0, (Tenant("t"),), requests),
        "fifo-priority",
        devices=1,
        execute=True,
    )
    report = sched.run()
    assert report.completed == len(SIZES)
    assert [j.completed_ms for j in sched.jobs] == sorted(
        j.completed_ms for j in sched.jobs
    )

    expected = SortTelemetry(requests=0)
    for job in sched.jobs:
        assert job.plan.devices is None
        request = _request(job)
        direct = repro.sort(request, engine=job.plan.engine)
        expected.add(direct.telemetry)
        values = request.to_values()
        order = np.lexsort((values["id"], values["key"]))
        np.testing.assert_array_equal(sched.results[job.index], values[order])
    assert {j.plan.engine for j in sched.jobs} == {"cpu-std", "abisort-brook"}

    telemetry = report.telemetry
    assert telemetry.devices == 0
    assert telemetry.modeled_makespan_ms == 0.0
    assert _modeled(telemetry) == _modeled(expected)
