"""The trace-replay harness: one call from trace to fleet report.

:func:`replay` runs one trace under one policy;
:func:`compare_policies` runs the same trace under every built-in one.
Both are thin over :class:`~repro.fleet.scheduler.FleetScheduler`, whose
service times come from the process-wide single-device planner
(:func:`repro.planner.default_planner`), so every replay in a process
prices each request size once.  Everything is virtual time, so results
depend only on (trace, policy, pool parameters) and replays are
bit-reproducible.
"""

from __future__ import annotations

from repro.fleet.autoscaler import Autoscaler
from repro.fleet.policy import POLICIES, SchedulingPolicy
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.stats import FleetReport
from repro.workloads.traces import Trace

__all__ = ["replay", "compare_policies"]


def replay(
    trace: Trace,
    policy: str | SchedulingPolicy = "weighted-fair",
    *,
    devices: int = 4,
    autoscaler: Autoscaler | None = None,
    queue_bound: int = 64,
    execute: bool = False,
    observer=None,
) -> FleetReport:
    """Replay ``trace`` under ``policy`` and return the fleet report.

    Parameters mirror :class:`~repro.fleet.scheduler.FleetScheduler`;
    ``execute=True`` additionally sorts every completed request through
    the real engine stack (slow, for identity tests), the default keeps
    execution modeled (costs only).  ``observer`` (a
    :class:`~repro.fleet.observe.FleetObserver`) rides along and captures
    metrics, job spans, and virtual-time samples for the same replay.
    """
    return FleetScheduler(
        trace,
        policy,
        devices=devices,
        autoscaler=autoscaler,
        queue_bound=queue_bound,
        execute=execute,
        observer=observer,
    ).run()


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
        name: replay(
            trace,
            name,
            devices=devices,
            autoscaler=autoscaler,
            queue_bound=queue_bound,
        )
        for name in sorted(POLICIES)
    }
