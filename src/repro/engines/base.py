"""The unified sorting-engine protocol: requests, results, capabilities.

Every sorter in this repository -- the GPU-ABiSort variants, the five
baselines of Section 2.2/8, and the out-of-core hybrid pipeline -- is
exposed behind one :class:`SortEngine` interface.  A caller builds a
:class:`SortRequest` (values or plain key/id arrays, of any length), hands
it to an engine (usually via :func:`repro.sort` and the registry of
:mod:`repro.engines.registry`), and receives a :class:`SortResult` whose
:class:`SortTelemetry` carries the counted and modeled costs that used to be
scraped off ``sorter.last_machine`` by every benchmark independently.

Capability flags
----------------

Engines differ in what they can serve; each declares an
:class:`EngineCapabilities` record:

``any_length``
    Accepts any input length.  Engines without it are restricted to
    power-of-two lengths, as the paper's GPU sorters are ("GPU-based sorting
    approaches are usually restricted to power-of-two sequence lengths");
    the ABiSort engines clear the restriction via +inf padding (Section 4).
``key_value``
    Sorts (key, id) pairs under the paper's total order, returning the id
    permutation alongside the keys.
``out_of_core``
    Handles datasets larger than the (simulated) device memory by spilling
    to a disk-backed run/merge pipeline.
``stable``
    Equal keys keep their input order when ids default to input positions
    (the paper's distinctness device makes this automatic).

Dispatching a request an engine cannot serve raises
:class:`repro.errors.CapabilityError` naming engines that can.

Empty and single-element inputs
-------------------------------

Uniform across *all* engines: sorting zero or one element returns (a copy
of) the input with zeroed telemetry, never an error, and never dispatches to
the underlying algorithm.  The engine layer fixes these semantics in one
place.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import CapabilityError, SortInputError
from repro.stream.context import StreamMachine
from repro.stream.gpu_model import GEFORCE_7800_GTX, PCIE_SYSTEM, GPUModel, HostSystem
from repro.stream.mapping2d import Mapping2D
from repro.stream.stream import check_values, make_values

__all__ = [
    "EngineCapabilities",
    "SortRequest",
    "SortTelemetry",
    "SortResult",
    "BatchResult",
    "SortEngine",
    "CAPABILITY_FLAGS",
]

#: The capability-flag names, in display order (CLI, README, tests).
CAPABILITY_FLAGS = ("any_length", "key_value", "out_of_core", "stable")


@dataclass(frozen=True)
class EngineCapabilities:
    """What a :class:`SortEngine` can serve (see the module docstring)."""

    any_length: bool = False
    key_value: bool = True
    out_of_core: bool = False
    stable: bool = True

    def flags(self) -> dict[str, bool]:
        """The capability flags as an ordered name -> bool mapping."""
        return {name: getattr(self, name) for name in CAPABILITY_FLAGS}

    def accepts(self, n: int) -> bool:
        """Whether an engine with these flags serves ``n`` pairs: any
        length under ``any_length``, otherwise powers of two (0 and 1
        included: trivial inputs never reach an algorithm)."""
        return self.any_length or n & (n - 1) == 0

    def missing(self, required: tuple[str, ...]) -> list[str]:
        """The subset of ``required`` flag names this engine lacks."""
        out = []
        for name in required:
            if name not in CAPABILITY_FLAGS:
                raise SortInputError(
                    f"unknown capability {name!r}; known flags: {CAPABILITY_FLAGS}"
                )
            if not getattr(self, name):
                out.append(name)
        return out


@dataclass
class SortRequest:
    """One sort job, in engine-independent terms.

    Exactly one input form must be given: either ``values`` (a
    ``VALUE_DTYPE`` array) or ``keys`` (any 1D numeric array, optionally
    with ``ids``).  Plain keys are packed with
    :func:`repro.core.values.make_values`, so ids default to input
    positions -- the paper's distinctness device, which also makes the sort
    stable.  Either form must meet the input contract: no NaN key and
    unique ids (see :meth:`to_values`).

    ``gpu``, ``host`` and ``mapping`` are the hardware models the
    modeled-time telemetry is costed under.  ``require`` lists capability
    flags the serving engine must declare, e.g. ``("out_of_core",)``.
    """

    values: np.ndarray | None = None
    keys: np.ndarray | None = None
    ids: np.ndarray | None = None
    require: tuple[str, ...] = ()
    gpu: GPUModel = GEFORCE_7800_GTX
    host: HostSystem = PCIE_SYSTEM
    mapping: Mapping2D | None = None
    #: Device count for cluster-aware engines (``sharded-abisort``) and the
    #: ``sort_batch`` fast path; ``None`` keeps the engine's own default.
    #: Single-device engines ignore it.
    devices: int | None = None
    #: The caller wants the exact traced execution (op logs, comparison
    #: traces, figures): the request then runs on the ``reference``
    #: execution tier, otherwise on the ``vectorized`` one (see
    #: :mod:`repro.exec`; the tiers are bit- and telemetry-identical).
    trace: bool = False

    def to_values(self) -> np.ndarray:
        """Normalise the input to a ``VALUE_DTYPE`` array (without copying
        an already-packed ``values`` input).

        The one place the input contract is checked
        (:func:`~repro.core.values.check_values`: no NaN key, unique ids):
        every engine, batch, service, socket, store and fleet request
        passes through here, and nothing below re-checks it.
        """
        if self.values is not None:
            if self.keys is not None or self.ids is not None:
                raise SortInputError(
                    "give either values or keys/ids, not both"
                )
            return check_values(self.values)
        if self.keys is None:
            raise SortInputError("SortRequest needs values or keys")
        return make_values(np.asarray(self.keys), self.ids)


@dataclass
class SortTelemetry:
    """Counted and modeled costs of one sort (or a batch aggregate).

    Stream-machine engines populate the op/byte counters and
    ``modeled_gpu_ms``; CPU engines populate ``cpu_ops`` and
    ``modeled_cpu_ms``; the out-of-core engine adds the disk fields and
    ``modeled_io_ms``.  ``wall_time_s`` is always the measured wall time of
    the simulation itself (a statement about this library's Python speed,
    not about 2006 hardware).

    Cluster-aware dispatch (the ``sharded-abisort`` engine and the
    ``sort_batch(..., devices=N)`` fast path) additionally fills the
    multi-device fields: ``devices`` (devices that did work),
    ``transfer_bytes`` / ``modeled_transfer_ms`` (bus traffic over the
    per-device links), ``pipeline_bubble_ms`` (compute idle while waiting
    on transfers), and ``modeled_makespan_ms`` -- the critical-path
    completion time of the overlapped schedule, as opposed to
    ``modeled_total_ms`` which sums the stage times as if serialized.

    Requests served through :class:`repro.service.SortService` additionally
    carry the service-layer fields: ``queue_wait_ms`` (measured wall time
    from submission to execution start, coalescing included),
    ``coalesce_ms`` (the slice of that wait spent holding the batch open
    for more arrivals), and ``service_makespan_ms`` (the modeled
    critical-path completion time of the whole coalesced batch the request
    rode in -- every request of one batch reports the same value).
    """

    n: int = 0
    requests: int = 1
    stream_ops: int = 0
    kernel_ops: int = 0
    copy_ops: int = 0
    kernel_instances: int = 0
    bytes_moved: int = 0
    gather_bytes: int = 0
    cpu_ops: int = 0
    disk_seeks: int = 0
    disk_bytes: int = 0
    modeled_gpu_ms: float = 0.0
    modeled_cpu_ms: float = 0.0
    modeled_io_ms: float = 0.0
    wall_time_s: float = 0.0
    devices: int = 0
    transfer_bytes: int = 0
    modeled_transfer_ms: float = 0.0
    modeled_makespan_ms: float = 0.0
    pipeline_bubble_ms: float = 0.0
    queue_wait_ms: float = 0.0
    coalesce_ms: float = 0.0
    service_makespan_ms: float = 0.0

    @property
    def modeled_total_ms(self) -> float:
        """All modeled time, across GPU, CPU, and I/O stages."""
        return self.modeled_gpu_ms + self.modeled_cpu_ms + self.modeled_io_ms

    def add(self, other: "SortTelemetry") -> None:
        """Accumulate another record into this one (batch aggregation).

        Counters and modeled times sum (summed ``modeled_makespan_ms``
        means requests running back to back; the cluster batch path
        overwrites it with the overlapped schedule's makespan).  The
        service fields sum too -- ``queue_wait_ms`` becomes total wait, and
        summed ``service_makespan_ms`` over one batch overcounts it by the
        batch size, which is why :class:`repro.service.ServiceStats` tracks
        per-batch makespans separately.  ``devices`` takes the maximum: a
        batch on a 4-device cluster used 4 devices, not 4 per request
        summed.
        """
        mine, theirs = self.__dict__, other.__dict__
        for name in _SUMMED_FIELDS:
            mine[name] += theirs[name]
        self.devices = max(self.devices, other.devices)

    def summary(self) -> str:
        """One-line human-readable account of the populated fields."""
        parts = [f"n={self.n}"]
        if self.stream_ops:
            parts.append(
                f"{self.stream_ops} stream ops "
                f"({self.kernel_ops} kernels + {self.copy_ops} copies), "
                f"{self.bytes_moved / 1e6:.1f} MB moved"
            )
        if self.cpu_ops:
            parts.append(f"{self.cpu_ops} CPU ops")
        if self.disk_seeks or self.disk_bytes:
            parts.append(
                f"{self.disk_seeks} seeks, {self.disk_bytes / 1e6:.1f} MB disk"
            )
        if self.modeled_total_ms:
            parts.append(f"modeled {self.modeled_total_ms:.2f} ms")
        if self.devices:
            parts.append(
                f"{self.devices} devices, {self.transfer_bytes / 1e6:.1f} MB "
                f"over the bus, makespan {self.modeled_makespan_ms:.2f} ms"
            )
        if self.queue_wait_ms or self.service_makespan_ms:
            parts.append(
                f"queued {self.queue_wait_ms:.1f} ms "
                f"(coalesce {self.coalesce_ms:.1f} ms), "
                f"service makespan {self.service_makespan_ms:.2f} ms"
            )
        parts.append(f"wall {self.wall_time_s * 1e3:.1f} ms")
        return ", ".join(parts)


#: The :class:`SortTelemetry` fields :meth:`SortTelemetry.add` sums: all
#: but ``devices`` (maximum).
_SUMMED_FIELDS = tuple(
    f.name for f in fields(SortTelemetry) if f.name != "devices"
)


@dataclass
class SortResult:
    """The output of one engine dispatch.

    ``values`` is the sorted ``VALUE_DTYPE`` array (ascending by the
    (key, id) total order); ``keys``/``ids`` expose the unpacked views,
    ``ids`` being the permutation that reorders any associated payload.
    ``machine`` is the stream machine the run executed on, when the engine
    runs on one (the full op log, for analyses beyond the telemetry
    aggregates); CPU and trivial (n <= 1) runs leave it ``None``.  The
    cluster engine runs on *several* machines and leaves ``machine`` None
    too -- it instead attaches the full
    :class:`repro.cluster.sharded.ShardedSortResult` (shard plan, pipeline
    schedule, per-shard machines) as ``cluster``.  Requests dispatched by the
    planner (``engine="auto"``) carry the winning
    :class:`repro.planner.SortPlan` as ``plan``; ``engine`` then names the
    backend that actually served the request.
    """

    values: np.ndarray
    engine: str
    telemetry: SortTelemetry
    machine: StreamMachine | None = None
    cluster: object | None = None
    plan: object | None = None

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def keys(self) -> np.ndarray:
        """The sorted keys (a view into :attr:`values`)."""
        return self.values["key"]

    @property
    def ids(self) -> np.ndarray:
        """The sorted ids / payload permutation (a view into :attr:`values`)."""
        return self.values["id"]


@dataclass
class BatchResult:
    """The outputs of :func:`repro.sort_batch`: per-request results plus an
    aggregate telemetry record summed over the batch.  When the batch ran
    on the cluster fast path (``devices=N``), ``schedule`` carries the full
    :class:`repro.cluster.scheduler.ClusterSchedule` of the overlapped
    execution."""

    results: list[SortResult]
    telemetry: SortTelemetry
    schedule: object | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> SortResult:
        return self.results[index]


class SortEngine(ABC):
    """One sorting backend behind the unified API.

    Subclasses set :attr:`name`, :attr:`capabilities`, and
    :attr:`description`, and implement :meth:`_run`, which receives a
    non-trivial (n >= 2) ``VALUE_DTYPE`` array plus the originating request
    and returns ``(sorted_values, telemetry, machine_or_None)``
    (cluster-aware engines may append a fourth element, attached to the
    result as :attr:`SortResult.cluster`).  The base
    class owns everything engine-independent: input normalisation,
    capability checking, the uniform empty/single-element semantics, and
    wall-time measurement.

    Engine instances hold no state between requests: the registry builds
    one per name and every caller (:func:`repro.sort`,
    :func:`repro.sort_batch`, the service, the fleet) shares it, from any
    thread.

    An engine may also carry a :class:`repro.engines.cost.CostModel` as
    :attr:`cost_model` -- a predictor of the modeled cost the engine's
    telemetry would report for a request shape.  The planner
    (:mod:`repro.planner`) only considers engines with one.  Every
    built-in backend sets its own (from :mod:`repro.planner.models`), so
    whatever a model caches, such as calibrated curves, lives and dies
    with the engine instance the registry holds.
    """

    name: str = ""
    description: str = ""
    capabilities: EngineCapabilities = EngineCapabilities()
    #: The engine's cost model (see class docstring); ``None`` leaves the
    #: engine unplannable, dispatchable by name only.
    cost_model: "object | None" = None

    def sort(self, request: SortRequest) -> SortResult:
        """Serve ``request``, returning the sorted output plus telemetry."""
        values = request.to_values()
        n = values.shape[0]
        self._check(request, n)
        start = time.perf_counter()
        if n <= 1:
            ran = (values.copy(), SortTelemetry(), None)
        else:
            ran = self._run(values, request)
        out, telemetry, machine = ran[:3]
        cluster = ran[3] if len(ran) > 3 else None
        telemetry.n = n
        telemetry.wall_time_s = time.perf_counter() - start
        return SortResult(
            values=out,
            engine=self.name,
            telemetry=telemetry,
            machine=machine,
            cluster=cluster,
        )

    # -- hooks ---------------------------------------------------------------

    @abstractmethod
    def _run(
        self, values: np.ndarray, request: SortRequest
    ) -> tuple[np.ndarray, SortTelemetry, StreamMachine | None]:
        """Sort ``values`` (guaranteed n >= 2 and capability-checked)."""

    # -- dispatch checks -----------------------------------------------------

    def _check(self, request: SortRequest, n: int) -> None:
        caps = self.capabilities
        missing = request.require and caps.missing(tuple(request.require))
        if missing:
            raise CapabilityError(
                f"engine {self.name!r} lacks required "
                f"capabilit{'ies' if len(missing) > 1 else 'y'} "
                f"{', '.join(missing)}; "
                + _suggest(tuple(request.require))
            )
        if not caps.accepts(n):
            raise CapabilityError(
                f"engine {self.name!r} requires a power-of-two input length, "
                f"got {n} (the paper's GPU sorting networks are 'restricted "
                f"to power-of-two sequence lengths'); "
                + _suggest(("any_length",) + tuple(request.require))
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = [k for k, v in self.capabilities.flags().items() if v]
        return f"<SortEngine {self.name!r} [{', '.join(on)}]>"


def _suggest(required: tuple[str, ...]) -> str:
    """Name the registered engines that do declare ``required`` flags."""
    from repro.engines.registry import available  # late: avoid import cycle

    names = available(require=required)
    if not names:
        return "no registered engine declares them"
    return f"engines that can serve this request: {', '.join(names)}"
