"""Multi-tenant fleet scheduling over the modeled device pool.

The eighth layer of the stack: one :class:`~repro.service.SortService`
over one device pool is a single cell; production is a *fleet* of tenants
competing for devices.  This package schedules that competition:

* :mod:`repro.fleet.policy` -- the pluggable
  :class:`~repro.fleet.policy.SchedulingPolicy` ABC (placement,
  preemption, eviction hooks) and the three built-ins in
  :data:`~repro.fleet.policy.POLICIES`: ``fifo-priority``,
  ``weighted-fair``, ``deadline-edf``;
* :mod:`repro.fleet.scheduler` -- the virtual-time event-driven
  :class:`~repro.fleet.scheduler.FleetScheduler` that owns the mechanism
  invariants (conservation, quotas, preemption budgets) whatever the
  policy decides, and places each execution on a pool slot
  (``Job.slot``): ``FleetScheduler(trace, policy, ...).run()`` replays
  one trace, :func:`~repro.fleet.scheduler.compare_policies` replays it
  under every built-in policy;
* :mod:`repro.fleet.autoscaler` -- reactive pool sizing from queue depth
  and utilization;
* :mod:`repro.fleet.observe` -- :class:`~repro.fleet.observe.FleetObserver`,
  the metrics and job event log of one replay, with the spans and
  per-slot busy time built from it;
* :mod:`repro.fleet.stats` -- :class:`~repro.fleet.stats.FleetReport`
  with per-tenant makespan, p99 wait, Jain fairness, and
  preemption/eviction counters.

Workloads come from :mod:`repro.workloads.traces` (seeded Poisson/MMPP/
diurnal arrivals, heavy-tailed sizes, NDJSON record/replay); the
:class:`~repro.workloads.traces.Tenant` record is re-exported here
because tenants are fleet-level identities.  Faces: this API,
``python -m repro fleet``, and ``{"op": "fleet"}`` lines on the service
socket.  See ``docs/fleet.md``.
"""

from repro.fleet.autoscaler import Autoscaler
from repro.fleet.observe import FleetObserver
from repro.fleet.policy import (
    POLICIES,
    DeadlineEdfPolicy,
    FifoPriorityPolicy,
    SchedulingPolicy,
    WeightedFairSharePolicy,
    make_policy,
)
from repro.fleet.scheduler import FleetScheduler, Job, compare_policies
from repro.fleet.stats import FleetReport, TenantStats, jain_index
from repro.workloads.traces import Tenant, Trace, TraceRequest

__all__ = [
    "Autoscaler",
    "compare_policies",
    "SchedulingPolicy",
    "FifoPriorityPolicy",
    "WeightedFairSharePolicy",
    "DeadlineEdfPolicy",
    "POLICIES",
    "make_policy",
    "FleetScheduler",
    "FleetObserver",
    "Job",
    "FleetReport",
    "TenantStats",
    "jain_index",
    "Tenant",
    "Trace",
    "TraceRequest",
]
