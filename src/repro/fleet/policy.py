"""Pluggable fleet scheduling policies: placement, preemption, eviction.

One ABC, three decision hooks (the ``pycloud`` policy-module pattern the
ROADMAP points at, adapted to a virtual-time scheduler):

* :meth:`SchedulingPolicy.select` -- **placement**: which queued job runs
  next when a device is free;
* :meth:`SchedulingPolicy.victim` -- **preemption**: which running job (if
  any) to displace so a more urgent one can start;
* :meth:`SchedulingPolicy.evict` -- **eviction**: which job to drop when a
  tenant's queue bound is hit (the arriving one by default: tail drop).

The scheduler (:mod:`repro.fleet.scheduler`) enforces the *mechanism*
invariants itself -- device-quota caps, the preemption budget, terminal
states -- so every policy, however adversarial, keeps them; policies only
express *preference*.  Each hook must answer with a job it was offered
(or ``None`` from ``victim``); the scheduler raises
:class:`~repro.errors.SortInputError` on any other answer.  Three
built-ins ship in :data:`POLICIES`:

``fifo-priority``
    Strict priority, FIFO within a priority class.  Simple and starvation
    -prone by design: the baseline the fair policies are judged against.
``weighted-fair``
    Weighted fair sharing by virtual service time: each tenant accrues
    ``duration / weight`` as its jobs run, and the tenant with the least
    normalised service goes next.  Quota enforcement (the scheduler's
    ``max_concurrency`` cap) bounds even a flooding tenant.
``deadline-edf``
    Earliest-deadline-first with preemption: deadline-stamped jobs order
    by urgency (deadline-free jobs last, by priority), and an urgent
    arrival may displace the running job with the *strictly latest*
    deadline -- strictness plus the scheduler's preemption budget rules
    out displacement cycles.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import SortInputError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fleet.scheduler import Job

__all__ = [
    "SchedulingPolicy",
    "FifoPriorityPolicy",
    "WeightedFairSharePolicy",
    "DeadlineEdfPolicy",
    "POLICIES",
    "make_policy",
]


def _deadline_key(job: "Job") -> float:
    """A job's deadline for ordering purposes (no deadline = +inf)."""
    deadline = job.request.deadline_ms
    return math.inf if deadline is None else deadline


class SchedulingPolicy(ABC):
    """Strategy interface for the fleet scheduler's three decisions.

    A policy instance may keep state across one replay (the weighted-fair
    service ledger does); :meth:`reset` is called once at replay start, so
    instances can be reused across replays.  All hooks receive only jobs
    the scheduler has already quota-filtered -- a policy cannot break a
    tenant quota however it answers.
    """

    #: Registry name (also what reports print).
    name: str = "policy"
    #: Whether the scheduler should consult :meth:`victim` when the pool
    #: is full.  Non-preemptive policies never displace running jobs.
    preemptive: bool = False

    def reset(self) -> None:
        """Clear per-replay state (called once before each replay)."""

    @abstractmethod
    def select(
        self,
        queued: Sequence["Job"],
        running: Sequence["Job"],
        now_ms: float,
    ) -> "Job":
        """The queued job to start next: one of ``queued``.

        ``queued`` is never empty and contains only quota-eligible jobs.
        """

    def victim(
        self,
        candidate: "Job",
        running: Sequence["Job"],
        now_ms: float,
    ) -> "Job | None":
        """The running job to preempt so ``candidate`` can start.

        Only consulted when :attr:`preemptive` is true and no device is
        free; ``running`` contains only jobs still inside their preemption
        budget.  The answer is ``None`` (decline to preempt) or one of
        ``running``.
        """
        return None

    def evict(
        self,
        arriving: "Job",
        queued: Sequence["Job"],
        now_ms: float,
    ) -> "Job":
        """The job to drop when ``arriving`` overflows its tenant's queue.

        ``queued`` is the tenant's already-queued jobs, minus any that
        have been preempted (those must eventually complete).  The
        default is tail drop (evict the arrival itself); the returned job
        must be ``arriving`` or a member of ``queued``.
        """
        return arriving

    # -- lifecycle hooks (stateful policies override) ------------------------

    def on_start(self, job: "Job", now_ms: float) -> None:
        """``job`` began (or resumed) executing at ``now_ms``."""

    def on_preempt(self, job: "Job", now_ms: float) -> None:
        """``job`` was displaced at ``now_ms`` and returns to the queue."""

    def on_complete(self, job: "Job", now_ms: float) -> None:
        """``job`` finished at ``now_ms``."""


class FifoPriorityPolicy(SchedulingPolicy):
    """Strict tenant priority, FIFO within a priority class.

    The job with the highest tenant priority goes first; ties break to the
    earliest arrival, then submission order.  No preemption, no fairness:
    a bursting high-priority tenant starves everyone below it, which is
    exactly the baseline behaviour the benchmarks measure.
    """

    name = "fifo-priority"

    def select(self, queued, running, now_ms):
        """Highest priority first; FIFO inside a class."""
        return min(
            queued,
            key=lambda j: (-j.tenant.priority, j.request.arrival_ms, j.index),
        )


class WeightedFairSharePolicy(SchedulingPolicy):
    """Weighted fair sharing by accrued virtual service time.

    Each tenant's ledger accrues ``duration_ms / weight`` when one of its
    jobs starts (and is refunded on preemption -- displaced work was not
    served).  Placement picks the tenant with the smallest normalised
    service among those with eligible jobs, then that tenant's oldest job.
    A tenant entering the ledger starts at the system *virtual time* --
    the start tag of the most recently placed job -- so sitting idle banks
    no credit (the start-time rule of virtual-time fair queueing), yet a
    tenant that was waiting all along is not penalised by service already
    charged to others.
    """

    name = "weighted-fair"

    def __init__(self) -> None:
        self._served: dict[str, float] = {}
        self._vtime = 0.0

    def reset(self) -> None:
        """Clear the per-tenant service ledger and the virtual clock."""
        self._served.clear()
        self._vtime = 0.0

    def _ledger(self, tenant: str) -> float:
        if tenant not in self._served:
            self._served[tenant] = self._vtime
        return self._served[tenant]

    def select(self, queued, running, now_ms):
        """The least-served tenant's oldest eligible job."""
        tenants: dict[str, list] = {}
        for job in queued:
            tenants.setdefault(job.tenant.name, []).append(job)
        chosen = min(
            tenants,
            key=lambda name: (
                self._ledger(name),
                -tenants[name][0].tenant.priority,
                name,
            ),
        )
        return min(
            tenants[chosen],
            key=lambda j: (j.request.arrival_ms, j.index),
        )

    def on_start(self, job, now_ms):
        """Charge the job's service time; advance the virtual clock."""
        start_tag = self._ledger(job.tenant.name)
        self._vtime = max(self._vtime, start_tag)
        self._served[job.tenant.name] = (
            start_tag + job.duration_ms / job.tenant.weight
        )

    def on_preempt(self, job, now_ms):
        """Refund displaced work -- it was charged but never delivered."""
        self._served[job.tenant.name] = (
            self._ledger(job.tenant.name) - job.duration_ms / job.tenant.weight
        )


class DeadlineEdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first placement with strict-progress preemption.

    Placement orders by absolute deadline (deadline-free jobs last, then
    by priority and arrival).  When the pool is full, a deadline-stamped
    candidate may displace the running job whose deadline is *strictly*
    the latest and strictly later than the candidate's own -- so no two
    jobs can displace each other in turn, and the scheduler's preemption
    budget bounds total displacement regardless.
    """

    name = "deadline-edf"
    preemptive = True

    def select(self, queued, running, now_ms):
        """Earliest deadline first; deadline-free jobs by priority/FIFO."""
        return min(
            queued,
            key=lambda j: (
                _deadline_key(j),
                -j.tenant.priority,
                j.request.arrival_ms,
                j.index,
            ),
        )

    def victim(self, candidate, running, now_ms):
        """The latest-deadline running job strictly behind ``candidate``."""
        if candidate.request.deadline_ms is None or not running:
            return None
        latest = max(
            running,
            key=lambda j: (_deadline_key(j), -j.tenant.priority, j.index),
        )
        if _deadline_key(latest) > _deadline_key(candidate):
            return latest
        return None

    def evict(self, arriving, queued, now_ms):
        """Drop the least urgent job (latest deadline), not the newest."""
        return max([arriving, *queued], key=lambda j: (_deadline_key(j), j.index))


#: Registry of built-in policies: name -> zero-argument factory.
POLICIES: dict[str, Callable[[], SchedulingPolicy]] = {
    FifoPriorityPolicy.name: FifoPriorityPolicy,
    WeightedFairSharePolicy.name: WeightedFairSharePolicy,
    DeadlineEdfPolicy.name: DeadlineEdfPolicy,
}


def make_policy(policy: "str | SchedulingPolicy") -> SchedulingPolicy:
    """Resolve a policy name (via :data:`POLICIES`) or pass an instance."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise SortInputError(
            f"unknown policy {policy!r}; available: {sorted(POLICIES)}"
        ) from None
