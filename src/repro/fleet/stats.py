"""Per-tenant replay statistics and the fleet report.

The numbers every scheduling-policy claim is judged on: per-tenant
makespan, mean/p99 wait, preemption/eviction/deadline counters, and the
cross-tenant fairness score (Jain's index).  A
:class:`FleetReport` is what :meth:`repro.fleet.FleetScheduler.run` returns and what
:func:`repro.analysis.cluster_report.format_fleet_report` renders; its
:meth:`FleetReport.to_json` form is the socket/CLI/golden-file payload,
built only from deterministic virtual-time quantities so the same trace
and seed always serialise to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engines.base import SortTelemetry

__all__ = ["jain_index", "TenantStats", "FleetReport"]


def jain_index(shares: list[float]) -> float:
    """Jain's fairness index of ``shares``: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal shares; ``1/n`` means one tenant has
    everything.  Empty input is vacuously fair (1.0).
    """
    if not shares:
        return 1.0
    total = float(sum(shares))
    squares = float(sum(x * x for x in shares))
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(shares) * squares)


@dataclass(frozen=True)
class TenantStats:
    """One tenant's outcome over a replay.

    ``wait`` is virtual time from a request's arrival to the start of the
    execution that ran to completion (a preempted request waits again);
    ``makespan_ms`` spans the tenant's first arrival to its last
    completion.  ``work_ms`` is the modeled service time the tenant's
    completed requests consumed -- its realised share of the pool.
    ``mean_slowdown`` averages per-request sojourn/service ratios
    (1.0 = never waited); it is the per-tenant input to the fleet's
    fairness score.
    """

    name: str
    submitted: int = 0
    completed: int = 0
    evicted: int = 0
    preemptions: int = 0
    deadline_misses: int = 0
    mean_wait_ms: float = 0.0
    p99_wait_ms: float = 0.0
    max_wait_ms: float = 0.0
    mean_slowdown: float = 0.0
    makespan_ms: float = 0.0
    work_ms: float = 0.0

    @classmethod
    def from_waits(
        cls,
        name: str,
        *,
        submitted: int,
        completed: int,
        evicted: int,
        preemptions: int,
        deadline_misses: int,
        waits_ms: list[float],
        slowdowns: list[float],
        makespan_ms: float,
        work_ms: float,
    ) -> "TenantStats":
        """Fold per-request waits and slowdowns into the summary row."""
        waits = np.asarray(waits_ms, dtype=np.float64)
        slow = np.asarray(slowdowns, dtype=np.float64)
        return cls(
            name=name,
            submitted=submitted,
            completed=completed,
            evicted=evicted,
            preemptions=preemptions,
            deadline_misses=deadline_misses,
            mean_wait_ms=float(waits.mean()) if waits.size else 0.0,
            p99_wait_ms=float(np.percentile(waits, 99)) if waits.size else 0.0,
            max_wait_ms=float(waits.max()) if waits.size else 0.0,
            mean_slowdown=float(slow.mean()) if slow.size else 0.0,
            makespan_ms=makespan_ms,
            work_ms=work_ms,
        )

    def to_json(self) -> dict:
        """JSON-ready form (golden files, socket replies, bench rows)."""
        return {
            "name": self.name,
            "submitted": self.submitted,
            "completed": self.completed,
            "evicted": self.evicted,
            "preemptions": self.preemptions,
            "deadline_misses": self.deadline_misses,
            "mean_wait_ms": round(self.mean_wait_ms, 6),
            "p99_wait_ms": round(self.p99_wait_ms, 6),
            "max_wait_ms": round(self.max_wait_ms, 6),
            "mean_slowdown": round(self.mean_slowdown, 6),
            "makespan_ms": round(self.makespan_ms, 6),
            "work_ms": round(self.work_ms, 6),
        }


@dataclass(frozen=True)
class FleetReport:
    """The full outcome of replaying one trace under one policy.

    ``fairness`` is Jain's index over per-tenant *mean slowdown*
    (sojourn/service, tenants with at least one completed request).
    Slowdown is the right equalisand: ideal processor sharing gives every
    job the same expected slowdown regardless of size or owner, which is
    precisely the ideal weighted-fair sharing approximates -- while a
    priority policy hands light low-priority tenants enormous slowdowns
    during other tenants' bursts.  The ``pool`` fields record the
    autoscaler's footprint (min/max devices held and the decision
    timeline); without an autoscaler they equal the configured size.
    """

    trace: str
    seed: int
    policy: str
    devices: int
    makespan_ms: float
    fairness: float
    tenants: tuple[TenantStats, ...]
    pool_min: int
    pool_max: int
    pool_timeline: tuple[tuple[float, int], ...] = ()
    telemetry: SortTelemetry | None = field(default=None, compare=False)
    #: Virtual time the replay started (the trace epoch; 0.0 by
    #: construction).  Stamped so counter fields can be read as rates
    #: over :attr:`uptime_ms` -- deterministic, unlike a wall clock.
    started_ms: float = 0.0

    @property
    def uptime_ms(self) -> float:
        """Virtual time the replay covered (start to last event)."""
        return self.makespan_ms - self.started_ms

    @property
    def submitted(self) -> int:
        """Requests submitted across all tenants."""
        return sum(t.submitted for t in self.tenants)

    @property
    def completed(self) -> int:
        """Requests completed across all tenants."""
        return sum(t.completed for t in self.tenants)

    @property
    def evicted(self) -> int:
        """Requests evicted across all tenants."""
        return sum(t.evicted for t in self.tenants)

    @property
    def preemptions(self) -> int:
        """Preemption events across all tenants."""
        return sum(t.preemptions for t in self.tenants)

    def tenant(self, name: str) -> TenantStats:
        """The stats row for tenant ``name``."""
        for stats in self.tenants:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def to_json(self) -> dict:
        """JSON-ready form (golden files, socket replies, bench rows)."""
        return {
            "trace": self.trace,
            "seed": self.seed,
            "policy": self.policy,
            "devices": self.devices,
            "started_ms": round(self.started_ms, 6),
            "uptime_ms": round(self.uptime_ms, 6),
            "makespan_ms": round(self.makespan_ms, 6),
            "fairness": round(self.fairness, 6),
            "submitted": self.submitted,
            "completed": self.completed,
            "evicted": self.evicted,
            "preemptions": self.preemptions,
            "pool_min": self.pool_min,
            "pool_max": self.pool_max,
            "tenants": [t.to_json() for t in self.tenants],
        }
