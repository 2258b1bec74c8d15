"""Built-in engine adapters: every sorter in the repository, one interface.

Thirteen backends, grouped by substrate:

==========================  =============================================
engine name                 wraps
==========================  =============================================
``abisort``                 overlapped + Section-7 optimized + GPU
                            semantics -- the paper's benchmarked config
``abisort-overlapped``      overlapped schedule, unoptimized (Section 5.4)
``abisort-sequential``      sequential phases, unoptimized (Appendix A)
``abisort-sequential-optimized``  sequential phases + Section 7
``abisort-brook``           overlapped + optimized under Brook-style
                            single-stream semantics (Section 6.1, off)
``sharded-abisort``         GPU-ABiSort sharded across N modeled devices
                            with the transfer-overlap pipeline and a
                            loser-tree merge (:mod:`repro.cluster`)
``bitonic-network``         Batcher bitonic network / GPUSort [GRHM05]
``odd-even-merge``          Batcher odd-even merge sort [KSW04, KW05]
``periodic-balanced``       periodic balanced sorting network [GRM05]
``odd-even-transition``     O(n^2) transition sort (Section 7.1 block)
``cpu-quicksort``           instrumented median-of-3 quicksort (the
                            paper's "C++ STL sort" stand-in)
``cpu-std``                 the host library sort (NumPy lexsort below
                            512 pairs, SIMD composite sort from 512)
``external``                out-of-core run-formation + k-way merge
                            (the GPUTeraSort-style hybrid pipeline)
==========================  =============================================

Each backend is one row of the registration table ``_BUILTINS`` at the
foot of this module: the eight stream programs are rows over
:class:`StreamEngine`, the three host sorts rows over :class:`CPUEngine`,
and the sharded and external engines keep a class each.  Adding a stream
program or a CPU sort is one row.

The ABiSort engines accept any input length by +inf padding (Section 4);
the network engines keep the power-of-two restriction of their GPU-era
implementations and raise :class:`~repro.errors.CapabilityError` otherwise.
Modeled times follow the same conventions as the paper benchmarks:
GPU-ABiSort is costed under the request's 1D->2D mapping (Z-order by
default), the networks under the GPU's fixed software-tiling efficiency
(the GPUSort B=64 footnote), CPU sorts by counted operations times the
host's per-op cost, and the external pipeline adds the simulated disk's
seek + bandwidth model.
"""

from __future__ import annotations

import functools

from repro.analysis.complexity import library_sort_comparisons
from repro.engines.base import EngineCapabilities, SortEngine, SortTelemetry
from repro.engines.registry import register
from repro.engines.telemetry import add_machine_counters, fill_schedule_telemetry
from repro.baselines.bitonic_network import gpusort_stream
from repro.baselines.cpu_sort import CPUSortCounters, quicksort, std_sort
from repro.baselines.odd_even_merge import odd_even_merge_stream
from repro.baselines.odd_even_transition import (
    odd_even_transition_exchanges,
    odd_even_transition_sort,
)
from repro.baselines.periodic_balanced import periodic_balanced_stream
from repro.core.api import ABiSortConfig
from repro.exec.stream_tier import modeled_cost, sort_on_stream
# Unused here, but the stackbench layer tracer wraps these module attributes.
from repro.exec.stream_tier import counting_network_run, counting_sort_run  # noqa: F401
from repro.hybrid.disk import SimulatedDisk
from repro.hybrid.external import ExternalSorter
from repro.planner import models
from repro.stream.gpu_model import cpu_sort_time_ms
from repro.stream.mapping2d import ZOrderMapping
from repro.stream.stream import VALUE_DTYPE

__all__ = [
    "StreamEngine",
    "CPUEngine",
    "ShardedABiSortEngine",
    "ExternalSortEngine",
]


class StreamEngine(SortEngine):
    """A stream program behind the engine interface: GPU-ABiSort or a
    sorting network (the Section-2.2 family).

    ``program`` is an :class:`ABiSortConfig` or a network's stream
    function, run through :func:`repro.exec.stream_tier.sort_on_stream`
    (untraced requests are served from the stream tier's memo).  The
    program decides the rest.  GPU-ABiSort sorts any length, logged and
    priced as its +inf padding to a power of two (Section 4), so
    ``any_length`` holds, and its modeled time uses the request's 1D->2D
    mapping.  A
    network takes power-of-two input only, as the GPU implementations
    it stands in for did, and its modeled time uses the GPU's fixed
    software-tiling read efficiency (the GPUSort B=64 convention).
    """

    def __init__(self, name: str, program, description: str):
        self.name = name
        self.description = description
        self.program = program
        self._tiled = not isinstance(program, ABiSortConfig)
        self.capabilities = EngineCapabilities(
            any_length=not self._tiled, key_value=True, stable=True
        )
        self.cost_model = models.StreamCostModel(name)

    def _run(self, values, request):
        out, machine = sort_on_stream(self.program, values, trace=request.trace)
        telemetry = SortTelemetry()
        add_machine_counters(telemetry, machine.counters())
        tiled = self._tiled
        telemetry.modeled_gpu_ms = modeled_cost(
            machine,
            request.gpu,
            None if tiled else request.mapping or ZOrderMapping(),
            request.gpu.tiled_read_efficiency if tiled else None,
        ).total_ms
        return out, telemetry, machine


class CPUEngine(SortEngine):
    """A host sort behind the engine interface.

    ``run(values)`` returns ``(sorted, ops)``: the telemetry reports the
    counted operations as ``cpu_ops`` and prices them at the host's
    per-op cost, which is what ``cost_model`` predicts.  Any length.
    """

    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)

    def __init__(self, name: str, run, cost_model, description: str):
        self.name = name
        self.description = description
        self._sort = run
        self.cost_model = cost_model

    def _run(self, values, request):
        out, ops = self._sort(values)
        telemetry = SortTelemetry(
            cpu_ops=ops, modeled_cpu_ms=cpu_sort_time_ms(ops, request.host)
        )
        return out, telemetry, None


def _transition_sort(values):
    return odd_even_transition_sort(values), odd_even_transition_exchanges(
        values.shape[0]
    )


def _quicksort(values):
    counters = CPUSortCounters()
    return quicksort(values, counters), counters.total_ops


def _std_sort(values):
    return std_sort(values), library_sort_comparisons(values.shape[0])


class ShardedABiSortEngine(SortEngine):
    """Multi-device GPU-ABiSort (:mod:`repro.cluster`) behind the engine API.

    The request is partitioned across ``request.devices`` modeled devices
    (default 2) built from the request's GPU and host models; every shard
    runs on its own stream machine (kept on the result), the scheduler
    overlaps each shard's upload/sort/download over the per-device transfer
    links, and a loser-tree k-way merge recombines the runs.  Output is
    bit-identical to the single-device ``abisort`` engine for any device
    count.
    """

    name = "sharded-abisort"
    description = (
        "GPU-ABiSort sharded across N devices, transfer-overlap pipeline + "
        "loser-tree merge"
    )
    capabilities = EngineCapabilities(any_length=True, key_value=True, stable=True)
    #: Shards per device (its cost model composes the same count).
    slices_per_device = 2
    cost_model = models.ShardedCostModel(slices_per_device)

    def _run(self, values, request):
        from repro.cluster.device import make_devices
        from repro.cluster.sharded import ShardedSorter

        count = request.devices or self.cost_model.default_devices
        devices = make_devices(count, gpu=request.gpu, host=request.host)
        sorter = ShardedSorter(
            devices,
            slices_per_device=self.slices_per_device,
            mapping=request.mapping or ZOrderMapping(),
            host=request.host,
            trace=request.trace,
        )
        res = sorter.sort(values)

        telemetry = SortTelemetry(
            cpu_ops=res.merge_comparisons,
            modeled_gpu_ms=sum(res.shard_sort_ms),
            modeled_cpu_ms=res.schedule.merge_ms,
        )
        fill_schedule_telemetry(
            telemetry, res.schedule, devices=res.plan.used_devices
        )
        for machine in res.machines:
            if machine is not None:
                add_machine_counters(telemetry, machine.counters())
        return res.values, telemetry, None, res


class ExternalSortEngine(SortEngine):
    """The out-of-core hybrid pipeline behind the engine interface.

    The request's values are spilled to a simulated disk, sorted by run
    formation (GPU-ABiSort over in-core chunks) plus a loser-tree k-way
    merge, and read back.  Telemetry carries the full cost picture: modeled
    GPU sorting time, counted merge comparisons, and the disk's seek/byte
    accounting with modeled I/O time.
    """

    name = "external"
    description = "out-of-core run formation + k-way merge (GPUTeraSort-style)"
    capabilities = EngineCapabilities(
        any_length=True, key_value=True, out_of_core=True, stable=True
    )

    #: In-core run length and merge read/write buffer, in records (read by
    #: the engine's cost model too).
    chunk_size = 1 << 12
    merge_buffer = 1 << 8
    cost_model = models.ExternalCostModel(chunk_size, merge_buffer)

    def _run(self, values, request):
        sorter = ExternalSorter(
            self.cost_model.chunk(values.shape[0]),
            gpu=request.gpu,
            mapping=request.mapping or ZOrderMapping(),
            merge_buffer=self.merge_buffer,
            trace=request.trace,
        )
        disk = SimulatedDisk(VALUE_DTYPE)
        disk.write_file("input", values)
        report = sorter.sort_file(disk, "input", "output")
        out = disk.read("output", 0, disk.size("output"))
        telemetry = SortTelemetry(
            cpu_ops=report.merge_comparisons,
            disk_seeks=report.disk_seeks,
            disk_bytes=report.disk_bytes,
            modeled_gpu_ms=report.gpu_modeled_ms,
            modeled_io_ms=report.io_modeled_ms,
            modeled_cpu_ms=cpu_sort_time_ms(
                report.merge_comparisons, request.host
            ),
        )
        return out, telemetry, None


#: The built-in engines, one row each: ``(name, engine class, *arguments
#: after the name)``.
_BUILTINS = (
    ("abisort", StreamEngine,
     ABiSortConfig(schedule="overlapped", optimized=True),
     "GPU-ABiSort, overlapped + Section-7 optimized (the paper's "
     "benchmarked configuration)"),
    ("abisort-overlapped", StreamEngine,
     ABiSortConfig(schedule="overlapped", optimized=False),
     "GPU-ABiSort, overlapped schedule (Section 5.4), unoptimized"),
    ("abisort-sequential", StreamEngine,
     ABiSortConfig(schedule="sequential", optimized=False),
     "GPU-ABiSort, sequential phases (Appendix A), unoptimized"),
    ("abisort-sequential-optimized", StreamEngine,
     ABiSortConfig(schedule="sequential", optimized=True),
     "GPU-ABiSort, sequential phases + Section-7 optimizations"),
    ("abisort-brook", StreamEngine,
     ABiSortConfig(schedule="overlapped", optimized=True, gpu_semantics=False),
     "GPU-ABiSort under Brook-style single-stream semantics "
     "(no Section-6.1 copy-back)"),
    ("bitonic-network", StreamEngine, gpusort_stream,
     "Batcher bitonic sorting network (the GPUSort [GRHM05] baseline)"),
    ("odd-even-merge", StreamEngine, odd_even_merge_stream,
     "Batcher odd-even merge sort (the Kipfer [KSW04/KW05] baseline)"),
    ("periodic-balanced", StreamEngine, periodic_balanced_stream,
     "periodic balanced sorting network (the Govindaraju [GRM05] "
     "baseline)"),
    # The standalone O(n^2) Section-7.1 block: any length, but quadratic
    # work, and cpu_ops counts the network's compare-exchanges.  Useful as
    # a tiny-n backend and as the reference for the ``local_sort8`` kernel.
    ("odd-even-transition", CPUEngine, _transition_sort,
     models.CPUCostModel(odd_even_transition_exchanges),
     "O(n^2) odd-even transition sort (Section 7.1 building block)"),
    # The paper's CPU baseline; its model predicts the expected count.
    ("cpu-quicksort", CPUEngine, _quicksort,
     models.CPUCostModel(models.quicksort_ops),
     "instrumented median-of-3 quicksort (the paper's CPU baseline)"),
    # The host library sort in the reference (key, id) order
    # (:func:`repro.baselines.cpu_sort.std_sort`: ``np.lexsort`` below 512
    # pairs, one SIMD sort of the (key, id) composites from 512 up; the
    # output is byte-identical either way).  Its modeled cost follows the
    # ``n log2 n`` library-sort comparison convention whichever path
    # sorts, so the engine competes fairly in planner scoring instead of
    # reporting an impossible zero-cost sort.
    ("cpu-std", CPUEngine, _std_sort,
     models.CPUCostModel(library_sort_comparisons),
     "host library sort (NumPy lexsort; SIMD sort >= 512 pairs)"),
    (ShardedABiSortEngine.name, ShardedABiSortEngine),
    (ExternalSortEngine.name, ExternalSortEngine),
)


def register_builtin_engines() -> None:
    """Register the thirteen built-in backends, one per row of ``_BUILTINS``."""
    for name, cls, *args in _BUILTINS:
        register(name, functools.partial(cls, name, *args) if args else cls)
