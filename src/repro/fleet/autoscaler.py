"""Reactive autoscaling of the modeled device pool.

The fleet's device pool is modeled capacity, so scaling it is a pure
scheduling decision: the :class:`Autoscaler` watches queue depth and
utilization at a fixed virtual-time cadence and moves the pool size one
step at a time inside ``[min_devices, max_devices]``.

The rules are the classic reactive pair:

* **scale up** one device when the backlog per device exceeds
  ``high_queue_per_device`` -- demand is outrunning capacity;
* **scale down** one device when utilization (running jobs per device)
  sits below ``low_utilization`` *and* the queue is empty -- capacity is
  idling.

Shrinking never cancels running work: the scheduler lets running jobs
finish and simply stops placing new ones until the pool drains to the
target.  One step per tick plus a hysteresis gap between the two
thresholds keeps the pool from oscillating on bursty arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SortInputError

__all__ = ["Autoscaler"]


@dataclass(frozen=True)
class Autoscaler:
    """Queue-depth / utilization driven pool sizing.

    Parameters
    ----------
    min_devices, max_devices:
        Inclusive pool-size bounds; the pool never leaves them.
    tick_ms:
        Virtual-time interval between decisions.
    """

    min_devices: int = 1
    max_devices: int = 8
    tick_ms: float = 50.0

    #: Scale up when ``queued / devices`` exceeds this.
    high_queue_per_device = 4.0
    #: Scale down when ``running / devices`` falls below this while the
    #: queue is empty.
    low_utilization = 0.5

    def __post_init__(self) -> None:
        """Reject bounds no pool could satisfy."""
        if self.min_devices < 1:
            raise SortInputError(
                f"autoscaler needs min_devices >= 1, got {self.min_devices}"
            )
        if self.max_devices < self.min_devices:
            raise SortInputError(
                f"autoscaler needs max_devices >= min_devices, got "
                f"[{self.min_devices}, {self.max_devices}]"
            )
        if self.tick_ms <= 0:
            raise SortInputError(
                f"autoscaler needs tick_ms > 0, got {self.tick_ms}"
            )

    def clamp(self, devices: int) -> int:
        """``devices`` clamped into ``[min_devices, max_devices]``."""
        return max(self.min_devices, min(self.max_devices, devices))

    def decide(self, *, queued: int, running: int, devices: int) -> int:
        """The pool size for the next interval (one step at most)."""
        devices = self.clamp(devices)
        if queued / devices > self.high_queue_per_device:
            return self.clamp(devices + 1)
        if queued == 0 and running / devices < self.low_utilization:
            return self.clamp(devices - 1)
        return devices
