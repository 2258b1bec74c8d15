"""Pool-health analysis over a fleet replay.

:func:`analyze_pool_health` folds a
:class:`~repro.fleet.stats.FleetReport` and the event stream a
:class:`~repro.fleet.observe.FleetObserver` captured alongside it into
one :class:`PoolHealth` summary:

* **per-device utilization and bubble time** -- how much of each pool
  slot's lifetime was spent running jobs versus sitting idle (the
  fleet-level analogue of the paper's upload/sort/download overlap
  accounting: bubbles are capacity the schedule failed to cover);
* **wait-time trends** -- completions bucketed into fixed virtual-time
  windows, so a report shows *when* waits grew, not just their mean;
* **eviction / overload analysis** -- who lost requests, at what rate,
  and how deep the queues ran;
* **per-tenant rollups** -- the report's tenant rows augmented with
  eviction shares.

Everything is computed from virtual-time quantities and rounded on
serialisation, so the same replay always produces byte-identical
health JSON -- the property the golden test pins and the HTML report
(:mod:`repro.obs.report`) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeviceHealth",
    "WaitWindow",
    "PoolHealth",
    "analyze_pool_health",
]

#: Utilization above which a device counts as saturated in the notes.
HOT_DEVICE = 0.9
#: Eviction share above which a tenant is flagged as shedding load.
HOT_EVICTIONS = 0.05
#: Virtual-time windows the replay's completions are bucketed into.
TREND_WINDOWS = 20


@dataclass(frozen=True)
class DeviceHealth:
    """One pool slot's share of the replay."""

    slot: int
    busy_ms: float
    bubble_ms: float
    utilization: float
    jobs: int

    def to_json(self) -> dict:
        """JSON-ready form with floats rounded for byte-stable goldens."""
        return {
            "slot": self.slot,
            "busy_ms": round(self.busy_ms, 6),
            "bubble_ms": round(self.bubble_ms, 6),
            "utilization": round(self.utilization, 6),
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class WaitWindow:
    """Completed-request waits inside one virtual-time window."""

    t_ms: float
    completions: int
    mean_wait_ms: float
    max_wait_ms: float

    def to_json(self) -> dict:
        """JSON-ready form with floats rounded for byte-stable goldens."""
        return {
            "t_ms": round(self.t_ms, 6),
            "completions": self.completions,
            "mean_wait_ms": round(self.mean_wait_ms, 6),
            "max_wait_ms": round(self.max_wait_ms, 6),
        }


@dataclass(frozen=True)
class PoolHealth:
    """The full health summary of one replay; see the module docstring."""

    trace: str
    policy: str
    seed: int
    devices: int
    uptime_ms: float
    busy_ms: float
    capacity_ms: float
    utilization: float
    bubble_ms: float
    fairness: float
    per_device: tuple[DeviceHealth, ...]
    wait_trend: tuple[WaitWindow, ...]
    tenants: tuple[dict, ...]
    evicted: int
    evictions_by_tenant: tuple[tuple[str, int], ...]
    eviction_rate_per_s: float
    preemptions: int
    peak_queue_depth: int
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        """JSON-ready form (golden files, socket replies, the HTML report)."""
        return {
            "trace": self.trace,
            "policy": self.policy,
            "seed": self.seed,
            "devices": self.devices,
            "uptime_ms": round(self.uptime_ms, 6),
            "pool": {
                "busy_ms": round(self.busy_ms, 6),
                "capacity_ms": round(self.capacity_ms, 6),
                "utilization": round(self.utilization, 6),
                "bubble_ms": round(self.bubble_ms, 6),
                "fairness": round(self.fairness, 6),
                "devices": [d.to_json() for d in self.per_device],
            },
            "waits": {"trend": [w.to_json() for w in self.wait_trend]},
            "tenants": list(self.tenants),
            "overload": {
                "evicted": self.evicted,
                "evictions_by_tenant": dict(self.evictions_by_tenant),
                "eviction_rate_per_s": round(self.eviction_rate_per_s, 6),
                "preemptions": self.preemptions,
                "peak_queue_depth": self.peak_queue_depth,
            },
            "notes": list(self.notes),
        }


def _wait_trend(observer, uptime_ms: float) -> tuple:
    series = observer.completions_series
    if not series or uptime_ms <= 0:
        return ()
    windows = TREND_WINDOWS
    width = uptime_ms / windows
    buckets: list[list[float]] = [[] for _ in range(windows)]
    for t_ms, wait_ms, _tenant in series:
        slot = min(int(t_ms / width), windows - 1)
        buckets[slot].append(wait_ms)
    trend = []
    for i, waits in enumerate(buckets):
        trend.append(
            WaitWindow(
                t_ms=(i + 1) * width,
                completions=len(waits),
                mean_wait_ms=sum(waits) / len(waits) if waits else 0.0,
                max_wait_ms=max(waits) if waits else 0.0,
            )
        )
    return tuple(trend)


def analyze_pool_health(report, observer):
    """Analyze one replay into a :class:`PoolHealth`.

    ``report`` is the replay's :class:`~repro.fleet.stats.FleetReport`
    and ``observer`` the :class:`~repro.fleet.observe.FleetObserver` that
    rode the same replay: it supplies the pool totals, per-device rows,
    wait trends and queue-depth peak.
    """
    uptime = report.uptime_ms
    busy = observer.busy_ms
    capacity = observer.capacity_ms
    slot_jobs = observer.slot_jobs
    per_device = tuple(
        DeviceHealth(
            slot=slot,
            busy_ms=busy_ms,
            bubble_ms=max(uptime - busy_ms, 0.0),
            utilization=busy_ms / uptime if uptime else 0.0,
            jobs=slot_jobs[slot],
        )
        for slot, busy_ms in enumerate(observer.slot_busy_ms)
    )

    tenants = []
    evictions_by_tenant = []
    for t in report.tenants:
        row = t.to_json()
        row["eviction_share"] = round(
            t.evicted / t.submitted if t.submitted else 0.0, 6
        )
        tenants.append(row)
        if t.evicted:
            evictions_by_tenant.append((t.name, t.evicted))

    notes = []
    for device in per_device:
        if device.utilization >= HOT_DEVICE:
            notes.append(
                f"slot{device.slot} saturated: "
                f"utilization {device.utilization:.2f}"
            )
    for row in tenants:
        if row["eviction_share"] >= HOT_EVICTIONS:
            notes.append(
                f"tenant {row['name']} shedding load: "
                f"{row['evicted']}/{row['submitted']} requests evicted"
            )
    if report.pool_min != report.pool_max:
        notes.append(
            f"autoscaler active: pool ranged "
            f"{report.pool_min}..{report.pool_max} devices"
        )

    return PoolHealth(
        trace=report.trace,
        policy=report.policy,
        seed=report.seed,
        devices=report.devices,
        uptime_ms=uptime,
        busy_ms=busy,
        capacity_ms=capacity,
        utilization=busy / capacity if capacity else 0.0,
        bubble_ms=max(capacity - busy, 0.0),
        fairness=report.fairness,
        per_device=per_device,
        wait_trend=_wait_trend(observer, uptime),
        tenants=tuple(tenants),
        evicted=report.evicted,
        evictions_by_tenant=tuple(evictions_by_tenant),
        eviction_rate_per_s=(
            report.evicted / (uptime / 1000.0) if uptime else 0.0
        ),
        preemptions=report.preemptions,
        peak_queue_depth=observer.peak_queue_depth,
        notes=tuple(notes),
    )
