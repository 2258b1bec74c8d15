"""Service configuration: the queueing, batching, and pool knobs.

One frozen dataclass holds every tuning knob of
:class:`repro.service.SortService`; ``docs/service.md`` walks through what
each one trades off.  The defaults target the paper's Table-3 system (a
GeForce 7800 GTX cluster over PCIe) and a small interactive deployment:
4 devices, 2 ms coalesce windows, batches of up to 32 requests, and a
256-request admission bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServiceError
from repro.stream.gpu_model import (
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    GPUModel,
    HostSystem,
)

__all__ = ["RETRY_AFTER_MS", "ServiceConfig"]

#: Back-off hint carried by overload rejections, in ms
#: (:attr:`~repro.errors.ServiceOverloadError.retry_after_ms` and the
#: NDJSON server's ``retry_after_ms`` error field).
RETRY_AFTER_MS = 10.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`repro.service.SortService`.

    Attributes
    ----------
    devices:
        Device-pool size: the number of modeled cluster
        :class:`~repro.cluster.device.Device`\\ s, each sorting one
        request at a time.  Coalesced batches are LPT-placed across them
        (:meth:`~repro.cluster.scheduler.Scheduler.assign_lpt`).
    gpu, host:
        Hardware models every device of the pool is built from (the
        cluster is homogeneous, like :func:`repro.cluster.make_devices`).
    engine:
        Default backend for requests that do not name one.  ``None`` (the
        default) routes each request through the cost-model planner, the
        same plan -> execute path as ``repro.sort(request)``.
    max_pending:
        Admission-control bound: the largest number of requests allowed
        in the service at once (queued, coalescing, or executing).  A
        submission beyond it is rejected with
        :class:`~repro.errors.ServiceOverloadError` instead of growing an
        unbounded queue.
    coalesce_window_ms:
        How long a forming batch stays open for more arrivals after its
        first request, in wall milliseconds; ``0`` seals every request
        as its own batch.  Larger windows build bigger batches (better
        placement, fewer schedules) at the price of added latency on the
        first request.
    max_batch:
        Batch-size cap: a batch dispatches as soon as it holds this many
        requests, window notwithstanding.
    """

    devices: int = 4
    gpu: GPUModel = GEFORCE_7800_GTX
    host: HostSystem = PCIE_SYSTEM
    engine: str | None = None
    max_pending: int = 256
    coalesce_window_ms: float = 2.0
    max_batch: int = 32

    def __post_init__(self) -> None:
        """Reject configurations that cannot queue or place anything."""
        if self.devices < 1:
            raise ServiceError(
                f"service needs at least one worker device, got {self.devices}"
            )
        if self.max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.coalesce_window_ms < 0:
            raise ServiceError(
                f"coalesce_window_ms must be >= 0, got {self.coalesce_window_ms}"
            )
