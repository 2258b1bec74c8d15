"""Regenerate Tables 2 and 3 (and their figures' data series).

The paper's evaluation (Section 8) reports wall-clock milliseconds for
``n = 2^15 .. 2^20`` uniformly random value/pointer pairs:

* Table 2 (GeForce 6800 Ultra, AGP Athlon-XP system): CPU sort range,
  GPUSort, GPU-ABiSort (a) with the row-wise 1D-2D mapping, (b) with the
  Z-order mapping.
* Table 3 (GeForce 7800 GTX, PCIe Athlon-64 system): CPU sort range,
  GPUSort, GPU-ABiSort (Z-order).

Here every number is *modeled*: each sorter runs for real on the simulated
substrate (the instrumented quicksort on the CPU side; the full stream
program on the stream machine), and the resulting operation counts go
through the hardware cost models of :mod:`repro.stream.gpu_model`.  The
plots in the paper show the same series as the tables, so one harness
serves both.  The benchmark JSON (BENCH_table2/3) records
paper-vs-modeled side by side; the
reproduction criterion is the *shape* (who wins where, crossovers, rough
factors), not absolute milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.baselines.bitonic_network import gpusort_stream
from repro.baselines.cpu_sort import CPUSortCounters, quicksort
from repro.core.api import ABiSortConfig
from repro.exec.stream_tier import modeled_cost, sort_on_stream
from repro.stream.gpu_model import (
    AGP_SYSTEM,
    GEFORCE_6800_ULTRA,
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    GPUModel,
    HostSystem,
    cpu_sort_time_ms,
)
from repro.stream.mapping2d import Mapping2D, RowWiseMapping, ZOrderMapping
from repro.workloads.generators import paper_workload

__all__ = [
    "PAPER_SIZES",
    "TimingRow",
    "cpu_range_ms",
    "gpusort_modeled_ms",
    "abisort_modeled_ms",
    "table_rows",
    "table2_rows",
    "table3_rows",
    "format_timing_table",
]

#: The sequence lengths of Tables 2 and 3.
PAPER_SIZES = tuple(1 << j for j in range(15, 21))

#: 2D stream width used by the row-wise mapping (the paper: "usually 2048
#: or 4096 elements on recent GPUs").
STREAM_WIDTH = 2048


@dataclass
class TimingRow:
    """One table row: modeled milliseconds per sorter at one n."""

    n: int
    cpu_lo_ms: float
    cpu_hi_ms: float
    gpusort_ms: float
    abisort_ms: dict[str, float] = field(default_factory=dict)


def cpu_range_ms(
    n: int, host: HostSystem, seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> tuple[float, float]:
    """CPU quicksort time range over several random inputs.

    The paper reports ranges because quicksort is data dependent; we run
    the instrumented quicksort over several seeds and model each run.  (Our
    modeled spread is narrower than the paper's measured one, which also
    contains cache/branch effects; see benchmarks/bench_table3_geforce7800.py.)
    """
    times = []
    for seed in seeds:
        counters = CPUSortCounters()
        quicksort(paper_workload(n, seed), counters)
        times.append(cpu_sort_time_ms(counters.total_ops, host))
    return min(times), max(times)


def gpusort_modeled_ms(n: int, gpu: GPUModel, seed: int = 0) -> float:
    """Run the GPUSort stand-in and model its time on ``gpu``.

    GPUSort's reads are costed at the GPU's ``tiled_read_efficiency``,
    modeling its fixed B=64 software tiling (near optimal on the 7800,
    mismatched on the 6800 -- the paper's footnote).
    """
    _out, machine = sort_on_stream(gpusort_stream, paper_workload(n, seed))
    return modeled_cost(machine, gpu, None, gpu.tiled_read_efficiency).total_ms


def abisort_modeled_ms(
    n: int,
    gpu: GPUModel,
    mapping: Mapping2D,
    seed: int = 0,
    config: ABiSortConfig | None = None,
) -> float:
    """Run GPU-ABiSort and model its time on ``gpu`` under ``mapping``.

    The default configuration is the paper's benchmarked one: overlapped
    schedule, Section-7 optimizations, GPU stream semantics.
    """
    _out, machine = sort_on_stream(
        config or ABiSortConfig(), paper_workload(n, seed)
    )
    return modeled_cost(machine, gpu, mapping).total_ms


def table_rows(
    sizes: tuple[int, ...],
    gpu: GPUModel,
    host: HostSystem,
    mappings: dict[str, Mapping2D],
    seed: int = 0,
) -> list[TimingRow]:
    """Build the rows of one timing table."""
    rows = []
    for n in sizes:
        lo, hi = cpu_range_ms(n, host)
        row = TimingRow(
            n=n,
            cpu_lo_ms=lo,
            cpu_hi_ms=hi,
            gpusort_ms=gpusort_modeled_ms(n, gpu, seed),
        )
        for name, mapping in mappings.items():
            row.abisort_ms[name] = abisort_modeled_ms(n, gpu, mapping, seed)
        rows.append(row)
    return rows


def table2_rows(sizes: tuple[int, ...] = PAPER_SIZES, seed: int = 0) -> list[TimingRow]:
    """Table 2: GeForce 6800 Ultra / AGP system; ABiSort (a) row-wise and
    (b) Z-order."""
    return table_rows(
        sizes,
        GEFORCE_6800_ULTRA,
        AGP_SYSTEM,
        {
            "row-wise": RowWiseMapping(STREAM_WIDTH),
            "z-order": ZOrderMapping(),
        },
        seed,
    )


def table3_rows(sizes: tuple[int, ...] = PAPER_SIZES, seed: int = 0) -> list[TimingRow]:
    """Table 3: GeForce 7800 GTX / PCIe system; ABiSort with Z-order."""
    return table_rows(
        sizes,
        GEFORCE_7800_GTX,
        PCIE_SYSTEM,
        {"z-order": ZOrderMapping()},
        seed,
    )


def format_timing_table(rows: list[TimingRow], title: str) -> str:
    """Render rows in the paper's table form."""
    variants = list(rows[0].abisort_ms) if rows else []
    header = ["n", "CPU sort", "GPUSort"] + [f"GPU-ABiSort {v}" for v in variants]
    lines = [title, "  ".join(f"{h:>18}" for h in header)]
    for row in rows:
        cells = [
            f"{row.n}",
            f"{row.cpu_lo_ms:.0f} - {row.cpu_hi_ms:.0f} ms",
            f"{row.gpusort_ms:.0f} ms",
        ] + [f"{row.abisort_ms[v]:.0f} ms" for v in variants]
        lines.append("  ".join(f"{c:>18}" for c in cells))
    return "\n".join(lines)
