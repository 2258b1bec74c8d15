"""Parametric GPU / host hardware models and the stream-op cost model.

The paper evaluates on two systems (Section 8):

* an AGP machine with an AMD Athlon-XP 3000+ CPU and an NVIDIA GeForce 6800
  Ultra (Table 2), and
* a PCI-Express machine with an AMD Athlon-64 4200+ CPU and an NVIDIA GeForce
  7800 GTX (Table 3).

We do not have those GPUs; what we have is the *counted* work each algorithm
performs on the simulated stream machine (stream operations, kernel
instances, linearly-read/written bytes, gathered bytes, and the 2D shape of
every substream).  This module converts those counts into modeled
milliseconds using a small number of published hardware parameters:

======================  ==================  ==================
parameter               GeForce 6800 Ultra  GeForce 7800 GTX
======================  ==================  ==================
fragment pipelines      16                  24
core clock              400 MHz             430 MHz
memory bandwidth        35.2 GB/s           54.4 GB/s
======================  ==================  ==================

Cost model (per stream operation)::

    compute = instances * cycles(kernel) / (fragment_units * clock)
    memory  = (linear_reads / read_eff + gathers / gather_eff + writes)
              / bandwidth
    time    = op_overhead + max(compute, memory)

``read_eff`` is the texture-cache bandwidth efficiency of the operation's
input substream shapes under the active 1D->2D mapping
(:func:`repro.stream.cache.block_read_efficiency`); this term is what makes
the row-wise mapping slower than Z-order, reproducing the (a)-vs-(b) split of
Table 2.  ``cycles(kernel)`` is a per-kernel-kind instruction estimate (the
per-instance arithmetic of each kernel is fixed and small; the table below
was set once from the kernel bodies and is never tuned per experiment).

The per-op overhead models driver/pipeline-flush cost of issuing one stream
operation -- the reason the paper works so hard to reduce the number of
stream operations (Section 3.1).  The AGP system is given a larger overhead
than the PCIe system.

GPUSort's cache behaviour: the paper's footnote explains that GPUSort tiles
streams with a hard-coded parameter B=64 tuned for the GeForce 7800 and
therefore underperforms on the 6800 ("showing a notably larger performance
difference between these GPUs than our and several other approaches").  We
model this with ``tiled_read_efficiency``, the efficiency an
externally-B=64-tiled access pattern reaches on each GPU's actual cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.errors import ModelError
from repro.stream.cache import CacheConfig, block_read_efficiency, gather_efficiency
from repro.stream.context import StreamOpRecord
from repro.stream.mapping2d import Mapping2D
from repro.stream.stream import PAIR_BYTES

#: Cycles per kernel instance, by kernel name.  Derived from the arithmetic
#: in each kernel body (comparisons, swaps, address updates); see the kernel
#: implementations in :mod:`repro.core.kernels` and
#: :mod:`repro.baselines.bitonic_network`.
DEFAULT_KERNEL_CYCLES: Mapping[str, float] = {
    "phase0": 18.0,  # 1 value compare, conditional 2-swap, 4 pushes
    "phaseI": 28.0,  # gather 2 nodes, compare, swaps, pointer updates, 4 pushes
    "extract_roots": 10.0,
    "local_sort8": 170.0,  # 8 odd-even transition passes over 8 pairs
    "build_trees16": 45.0,
    "traverse16": 140.0,  # 15 pointer-chasing gathers + emit 16 values
    "bitonic_merge16": 130.0,  # 4 compare-exchange rounds, emits 8 values
    "network_pass": 14.0,  # bitonic network: 1 partner read + compare
    "copy": 4.0,
    "init_tree_links": 8.0,
}


@dataclass(frozen=True)
class GPUModel:
    """A stream-processor hardware model."""

    name: str
    fragment_units: int
    core_clock_mhz: float
    mem_bandwidth_gb_s: float
    stream_op_overhead_us: float
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Read efficiency reached by GPUSort's fixed B=64 software tiling on
    #: this GPU's actual cache (see module docstring).
    tiled_read_efficiency: float = 0.9
    #: Fallback locality factor for data-dependent gathers when no mapping
    #: is active; see :func:`repro.stream.cache.gather_efficiency`.
    gather_locality: float = 0.16
    kernel_cycles: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_KERNEL_CYCLES)
    )
    default_cycles: float = 20.0

    def __post_init__(self):
        if self.fragment_units <= 0:
            raise ModelError("fragment_units must be positive")
        if self.core_clock_mhz <= 0 or self.mem_bandwidth_gb_s <= 0:
            raise ModelError("clock and bandwidth must be positive")
        if not 0 < self.tiled_read_efficiency <= 1:
            raise ModelError("tiled_read_efficiency must be in (0, 1]")

    def cycles_for(self, kernel_name: str) -> float:
        """Per-instance cycle estimate for a kernel kind."""
        return self.kernel_cycles.get(kernel_name, self.default_cycles)

    def with_units(self, fragment_units: int) -> "GPUModel":
        """A copy of this model with a different processor-unit count.

        Used by the scalability study (paper Sections 1 and 9: the approach
        "profits heavily from the trend of increasing number of fragment
        processor units").
        """
        return replace(self, name=f"{self.name}@{fragment_units}u", fragment_units=fragment_units)


@dataclass(frozen=True)
class HostSystem:
    """The CPU + bus side of a test system."""

    name: str
    cpu_name: str
    #: Modeled nanoseconds per counted CPU sort operation (one comparison or
    #: one element move of the instrumented quicksort).
    cpu_op_ns: float
    bus_name: str
    #: Effective round-trip bus bandwidth: total bytes moved (up + down)
    #: divided by wall time.
    bus_roundtrip_gb_s: float


@dataclass
class CostBreakdown:
    """Modeled time of a stream-op sequence, decomposed."""

    total_ms: float = 0.0
    overhead_ms: float = 0.0
    compute_ms: float = 0.0
    memory_ms: float = 0.0
    ops: int = 0
    #: Per-tag totals (algorithm phases), for ablation reporting.
    by_tag: dict[str, float] = field(default_factory=dict)

    @property
    def bound(self) -> str:
        """Which term dominates the non-overhead time."""
        return "compute" if self.compute_ms >= self.memory_ms else "memory"


def estimate_gpu_time_ms(
    ops: Iterable[StreamOpRecord],
    gpu: GPUModel,
    mapping: Mapping2D | None = None,
    *,
    fixed_read_efficiency: float | None = None,
) -> CostBreakdown:
    """Model the wall time of a logged stream-op sequence on ``gpu``.

    ``mapping`` supplies the 1D->2D packing whose cache behaviour scales the
    linear-read bandwidth term; ``fixed_read_efficiency`` overrides it with a
    constant (used for GPUSort's software tiling).  Exactly one of the two
    should normally be given; with neither, reads run at full bandwidth.
    """
    clock_hz = gpu.core_clock_mhz * 1e6
    units = gpu.fragment_units
    bw = gpu.mem_bandwidth_gb_s * 1e9
    overhead_s = gpu.stream_op_overhead_us * 1e-6
    # With an explicit software-tiling efficiency (the GPUSort model), the
    # partner gathers of the network follow the same tiled regular pattern,
    # so they run at that efficiency too; data-dependent pointer-chasing
    # gathers (GPU-ABiSort) use the trace-measured per-mapping efficiency.
    if fixed_read_efficiency is not None:
        g_eff = fixed_read_efficiency
    else:
        g_eff = gather_efficiency(
            gpu.cache,
            gpu.gather_locality,
            mapping_name=mapping.name if mapping is not None else None,
        )

    out = CostBreakdown()
    for op in ops:
        if fixed_read_efficiency is not None:
            read_eff = fixed_read_efficiency
        elif mapping is not None and op.input_blocks:
            effs = [
                block_read_efficiency(mapping, blocks, gpu.cache)
                for _stream, blocks in op.input_blocks
            ]
            read_eff = min(effs)
        else:
            read_eff = 1.0

        compute_s = op.instances * gpu.cycles_for(op.name) / (units * clock_hz)
        memory_s = (
            op.linear_read_bytes / read_eff
            + op.gather_bytes / g_eff
            + op.linear_write_bytes
        ) / bw
        body_s = max(compute_s, memory_s)

        out.ops += 1
        out.overhead_ms += overhead_s * 1e3
        out.compute_ms += compute_s * 1e3
        out.memory_ms += memory_s * 1e3
        out.total_ms += (overhead_s + body_s) * 1e3
        out.by_tag[op.tag] = out.by_tag.get(op.tag, 0.0) + (overhead_s + body_s) * 1e3
    return out


def cpu_sort_time_ms(counted_ops: int, host: HostSystem) -> float:
    """Model CPU quicksort wall time from its instrumented operation count."""
    if counted_ops < 0:
        raise ModelError("operation count must be non-negative")
    return counted_ops * host.cpu_op_ns * 1e-6


def transfer_round_trip_ms(n_pairs: int, host: HostSystem) -> float:
    """CPU->GPU->CPU transfer time for ``n_pairs`` value/pointer pairs.

    Section 8: moving 2^20 pairs to the GPU and back takes ~100 ms over AGP
    and ~20 ms over PCI Express; the presets below are calibrated to exactly
    those round-trip figures.
    """
    total_bytes = 2 * n_pairs * PAIR_BYTES
    return total_bytes / (host.bus_roundtrip_gb_s * 1e9) * 1e3


def _scaled_cycles(scale: float, network_pass: float) -> dict[str, float]:
    """Architecture-calibrated kernel-cost table.

    The per-instance *relative* costs come from the kernel bodies
    (:data:`DEFAULT_KERNEL_CYCLES`); ``scale`` is a per-architecture fitted
    factor reflecting how expensive dependent texture fetches and float
    address arithmetic were on each generation (high on NV40, much lower on
    G70 -- consistent with the paper's observation that the two GPUs differ
    far more on some workloads than raw clock x pipes suggests).  The tiny
    data-independent ``network_pass`` kernel is calibrated separately.
    """
    cycles = {k: v * scale for k, v in DEFAULT_KERNEL_CYCLES.items()}
    cycles["network_pass"] = network_pass
    return cycles


# Calibration note (see benchmarks/bench_table2_geforce6800.py and
# bench_table3_geforce7800.py): the four fitted parameters per GPU
# below (op overhead, tiled read efficiency, cycle scale, network-pass
# cycles) were fitted ONCE against the ten timing numbers of the paper's
# Tables 2 and 3 at n = 2^15 and 2^20 jointly (8.4% rms); everything else
# -- op counts, byte counts, 2D-shape read efficiencies, gather
# efficiencies -- is counted or measured, never fitted.

#: The paper's Table-2 GPU: NVIDIA GeForce 6800 Ultra (NV40), 16 fragment
#: pipelines at 400 MHz, 35.2 GB/s GDDR3.
GEFORCE_6800_ULTRA = GPUModel(
    name="GeForce 6800 Ultra",
    fragment_units=16,
    core_clock_mhz=400.0,
    mem_bandwidth_gb_s=35.2,
    stream_op_overhead_us=4.0,
    tiled_read_efficiency=0.15,  # GPUSort's B=64 tiling mismatches this cache
    kernel_cycles=_scaled_cycles(2.25, network_pass=6.0),
)

#: The paper's Table-3 GPU: NVIDIA GeForce 7800 GTX (G70), 24 fragment
#: pipelines at 430 MHz, 54.4 GB/s GDDR3.
GEFORCE_7800_GTX = GPUModel(
    name="GeForce 7800 GTX",
    fragment_units=24,
    core_clock_mhz=430.0,
    mem_bandwidth_gb_s=54.4,
    stream_op_overhead_us=5.0,
    tiled_read_efficiency=0.65,  # B=64 suits this cache (the footnote's point)
    kernel_cycles=_scaled_cycles(0.75, network_pass=8.0),
)

#: Table-2 host: AMD Athlon-XP 3000+ on an AGP bus.  ``cpu_op_ns`` is set so
#: the instrumented quicksort lands in the paper's CPU-sort range; the bus
#: bandwidth reproduces the ~100 ms round trip for 2^20 pairs.
AGP_SYSTEM = HostSystem(
    name="AGP system",
    cpu_name="AMD Athlon-XP 3000+",
    cpu_op_ns=14.0,
    bus_name="AGP 8x",
    bus_roundtrip_gb_s=0.168,
)

#: Table-3 host: AMD Athlon-64 4200+ on PCI Express (~20 ms round trip).
PCIE_SYSTEM = HostSystem(
    name="PCIe system",
    cpu_name="AMD Athlon-64 4200+",
    cpu_op_ns=10.5,
    bus_name="PCI Express x16",
    bus_roundtrip_gb_s=0.839,
)
