"""The engine cost-model protocol: predict a request's modeled cost.

The paper's argument is a cost model -- counted stream operations, modeled
bus transfers, and modeled GPU milliseconds decide which sorter wins at
which n (Tables 2/3, Section 7).  This module makes that argument a
first-class dispatch input: every registered engine can expose a
:class:`CostModel` that *predicts*, from the shape of a
:class:`~repro.engines.base.SortRequest` alone (n, key-value vs. values,
hardware models, device count), the modeled cost the engine's telemetry
would report if it served the request.  The planner
(:mod:`repro.planner`) scores capability-feasible engines with these
models and picks the cheapest plan.

Three pieces:

:class:`RequestShape`
    The hashable cost-relevant projection of a request -- what plan caches
    key on and cost models may dispatch on.  Two requests with equal
    shapes get equal estimates (and equal plans).

:class:`CostEstimate`
    A predicted cost, decomposed the same way :class:`SortTelemetry`
    decomposes measured cost (GPU / CPU / I/O / bus-transfer milliseconds,
    transfer bytes, and -- for pipelined multi-device plans -- an
    overlapped makespan).  :attr:`CostEstimate.cost_ms` is the scalar the
    planner minimises.

:func:`measured_cost_ms`
    The *measured* counterpart: the same scalar computed from an actual
    :class:`SortResult`.  Cost models are calibrated (and benchmarked, see
    ``benchmarks/bench_planner_accuracy.py``) against this quantity, so
    "planner pick vs. brute-force minimum" is an apples-to-apples
    comparison.

The convention both sides follow: a pipelined schedule's cost is its
critical-path makespan (transfers already overlapped); a single-shot
on-device sort pays its modeled GPU time plus the Section-8 bus round trip
of the payload; host-side engines pay their modeled CPU/IO time only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.stream.gpu_model import transfer_round_trip_ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.engines.base import SortRequest, SortResult

__all__ = [
    "RequestShape",
    "request_shape",
    "CostEstimate",
    "CostModel",
    "measured_cost_ms",
]


@dataclass(frozen=True)
class RequestShape:
    """The cost-relevant projection of one :class:`SortRequest`.

    Hashable by construction: hardware models and mappings are reduced to
    their names (the presets are the universe the calibration tables are
    keyed on; a custom :class:`GPUModel` should carry a distinct name).
    ``key_value`` records whether the caller supplied an explicit payload
    (packed values or ids) as opposed to bare keys -- it does not change
    any engine's cost here, but it is part of the request's identity and
    keeps the plan cache honest if a future engine prices the two forms
    differently.
    """

    n: int
    key_value: bool
    require: tuple[str, ...]
    gpu: str
    host: str
    mapping: str
    devices: int | None = None
    #: The request's trace flag.  It changes no engine's *modeled* cost --
    #: the tiers are telemetry-identical by contract -- but it picks the
    #: execution tier the plan names, so the plan cache must not alias
    #: shapes that differ in it.
    trace: bool = False

    def describe(self) -> str:
        """Compact one-line form for plan explanations."""
        form = "key-value" if self.key_value else "values"
        dev = f", devices={self.devices}" if self.devices else ""
        req = f", require={','.join(self.require)}" if self.require else ""
        traced = ", trace" if self.trace else ""
        return f"n={self.n} {form} on {self.gpu} / {self.host}{dev}{req}{traced}"


def request_shape(request: "SortRequest") -> RequestShape:
    """Project ``request`` onto its :class:`RequestShape` (cheap: no
    value packing, just array lengths and model names)."""
    if request.values is not None:
        n = int(request.values.shape[0])
        key_value = True
    else:
        n = 0 if request.keys is None else int(len(request.keys))
        key_value = request.ids is not None
    mapping = request.mapping.name if request.mapping is not None else "z-order"
    return RequestShape(
        n=n,
        key_value=key_value,
        require=tuple(request.require),
        gpu=request.gpu.name,
        host=request.host.name,
        mapping=mapping,
        devices=request.devices,
        trace=request.trace,
    )


@dataclass
class CostEstimate:
    """A predicted cost record, mirroring :class:`SortTelemetry`'s modeled
    fields.  ``makespan_ms`` is set only by pipelined multi-device models
    (their transfers are already overlapped inside the makespan);
    otherwise the scalar cost is the serialized stage sum."""

    modeled_gpu_ms: float = 0.0
    modeled_cpu_ms: float = 0.0
    modeled_io_ms: float = 0.0
    modeled_transfer_ms: float = 0.0
    transfer_bytes: int = 0
    makespan_ms: float | None = None
    #: Devices the estimate assumes (1 for single-device engines).
    devices: int = 1

    @property
    def total_ms(self) -> float:
        """Modeled compute + I/O time, transfers excluded."""
        return self.modeled_gpu_ms + self.modeled_cpu_ms + self.modeled_io_ms

    @property
    def cost_ms(self) -> float:
        """The scalar the planner minimises (see module docstring)."""
        if self.makespan_ms is not None:
            return self.makespan_ms
        return self.total_ms + self.modeled_transfer_ms


class CostModel(ABC):
    """Predicts a :class:`CostEstimate` for requests an engine can serve.

    An engine carries its model as :attr:`SortEngine.cost_model
    <repro.engines.base.SortEngine.cost_model>`; engines without one are
    invisible to the planner (explicit dispatch still works).  Models must
    be cheap relative to sorting -- they may calibrate themselves against
    probe runs at small n (see :mod:`repro.planner.calibration`), but a
    single estimate must never cost as much as serving the request.
    """

    @abstractmethod
    def estimate(
        self, request: "SortRequest", *, devices: int | None = None
    ) -> CostEstimate:
        """Predict the cost of serving ``request``.

        ``devices`` overrides the request's device count for cluster-aware
        engines; single-device engines ignore it.
        """

    def device_counts(
        self, request: "SortRequest", max_devices: int
    ) -> tuple[int | None, ...]:
        """The device counts worth scoring for this engine: ``(None,)``
        for single-device engines; cluster-aware engines enumerate
        ``1..max_devices`` (the planner passes its own limit) unless the
        request pins a count."""
        return (None,)


def measured_cost_ms(result: "SortResult", request: "SortRequest") -> float:
    """The scalar cost of an *actual* run, under the planner's convention.

    This is the quantity cost models predict: the overlapped makespan when
    the run produced a pipeline schedule, otherwise the serialized modeled
    stage time plus -- for runs that executed on a stream machine -- the
    Section-8 bus round trip of the payload.
    """
    telemetry = result.telemetry
    if telemetry.modeled_makespan_ms:
        return telemetry.modeled_makespan_ms
    total = telemetry.modeled_total_ms
    if result.machine is not None:
        total += transfer_round_trip_ms(telemetry.n, request.host)
    return total
