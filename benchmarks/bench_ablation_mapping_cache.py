"""E12 (ablation) -- why the Z-order mapping wins (Section 6.2).

Quantifies the mechanism behind Table 2's (a)-vs-(b) split on the actual
substream traffic of a run:

1. *linear reads*: per-op 2D-shape efficiency of every input substream
   under both mappings (Z-order blocks are squares/2:1 rectangles; small
   row-wise blocks are thin strips at ~1/B efficiency);
2. *gathers*: trace-driven cache simulation of the pointer-chasing reads
   under both mappings.
"""

from __future__ import annotations

import numpy as np

from repro.core.optimized import OptimizedGPUABiSorter
from repro.stream.cache import (
    CacheConfig,
    TextureCacheSim,
    block_read_efficiency,
)
from repro.stream.context import StreamMachine
from repro.stream.mapping2d import RowWiseMapping, ZOrderMapping
from repro.workloads.generators import paper_workload

N = 1 << 13


def run_with_traces():
    machine = StreamMachine(trace_gathers=True)
    OptimizedGPUABiSorter().sort(paper_workload(N), machine)
    return machine


def test_linear_read_shape_efficiency(benchmark, bench_json):
    machine = run_with_traces()
    cfg = CacheConfig()
    row_m, z_m = RowWiseMapping(2048), ZOrderMapping()

    def weighted_efficiency():
        out = {}
        for mapping in (row_m, z_m):
            useful = 0.0
            fetched = 0.0
            for op in machine.ops:
                for _stream, blocks in op.input_blocks:
                    eff = block_read_efficiency(mapping, blocks, cfg)
                    size = sum(b - a for a, b in blocks)
                    useful += size
                    fetched += size / eff
            out[mapping.name] = useful / fetched
        return out

    effs = benchmark.pedantic(weighted_efficiency, rounds=1, iterations=1)
    bench_json(n=N, efficiencies=effs)
    print(f"\nlinear-read bandwidth efficiency over all substreams "
          f"(n = 2^13): row-wise {effs['row-wise']:.3f}, "
          f"z-order {effs['z-order']:.3f}")
    assert effs["z-order"] > 2 * effs["row-wise"]
    assert effs["z-order"] > 0.8


def test_gather_trace_cache_efficiency(benchmark, bench_json):
    machine = run_with_traces()
    cfg = CacheConfig(block=8, capacity_blocks=128)

    def simulate():
        out = {}
        for mapping in (RowWiseMapping(2048), ZOrderMapping()):
            sim = TextureCacheSim(cfg)
            for _kernel, traces in machine.gather_traces:
                for idx in traces:
                    ax, ay = mapping.to_2d(idx)
                    sim.access(np.asarray(ax), np.asarray(ay))
            out[mapping.name] = sim.bandwidth_efficiency
        return out

    effs = benchmark.pedantic(simulate, rounds=1, iterations=1)
    bench_json(n=N, efficiencies=effs)
    print(f"\ngather (pointer-chase) cache efficiency: "
          f"row-wise {effs['row-wise']:.3f}, z-order {effs['z-order']:.3f}")
    assert effs["z-order"] > 1.5 * effs["row-wise"]
