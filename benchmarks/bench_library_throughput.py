"""Library-throughput microbenchmarks (not a paper experiment).

Per the "no optimization without measuring" rule, these track the wall-time
hot spots of the *simulation itself*: the full sorters (dispatched through
the unified engine API), the individual vectorised kernels, the Morton
mapping, and the cache simulator.  They give pytest-benchmark statistics a
regression baseline -- the numbers are about this library's Python
performance, not about the modeled 2006 hardware.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import repro
from repro.core import kernels
from repro.stream.cache import CacheConfig, TextureCacheSim
from repro.stream.context import StreamMachine
from repro.stream.mapping2d import ZOrderMapping, morton_decode, morton_encode
from repro.stream.stream import VALUE_DTYPE
from repro.workloads.generators import paper_workload
from repro.workloads.rng import seeded_rng

N = 1 << 13


def _mean_s(benchmark) -> float | None:
    """The measured mean wall seconds, when the benchmark actually ran
    (``--benchmark-disable`` leaves no stats)."""
    stats = getattr(benchmark, "stats", None)
    try:
        return float(stats.stats.mean) if stats is not None else None
    except AttributeError:
        return None


def _engine_throughput(benchmark, bench_json, engine: str, n: int = N):
    """Benchmark one registered engine end to end, telemetry included, on
    the registry's one instance of it."""
    request = repro.SortRequest(values=paper_workload(n))
    eng = repro.engines.get(engine)
    result = benchmark(eng.sort, request)
    assert result.values.shape == (n,)
    assert result.telemetry.n == n
    bench_json(engine=engine, n=n, mean_wall_s=_mean_s(benchmark))
    return result


def test_throughput_abisort_optimized(benchmark, bench_json):
    _engine_throughput(benchmark, bench_json, "abisort")


def test_throughput_abisort_unoptimized(benchmark, bench_json):
    _engine_throughput(benchmark, bench_json, "abisort-overlapped")


def test_throughput_bitonic_network(benchmark, bench_json):
    result = _engine_throughput(benchmark, bench_json, "bitonic-network")
    assert result.telemetry.stream_ops > 0


def test_throughput_quicksort(benchmark, bench_json):
    result = _engine_throughput(benchmark, bench_json, "cpu-quicksort")
    assert result.telemetry.cpu_ops > 0


def test_throughput_external(benchmark, bench_json):
    result = _engine_throughput(benchmark, bench_json, "external")
    assert result.telemetry.disk_bytes > 0


def test_throughput_local_sort_kernel(benchmark, bench_json):
    """The vectorised odd-even transition sort across 2^13 instances."""
    values = paper_workload(N * 8)

    def run():
        machine = StreamMachine(distinct_io=False)
        src = machine.wrap("src", values.copy())
        dst = machine.alloc("dst", VALUE_DTYPE, N * 8)
        machine.kernel(
            "local_sort8", instances=N,
            body=partial(kernels.local_sortw_body, width=8),
            inputs={"values": (src.whole(), 8)},
            consts={"reverse": kernels.reverse_flags(N, 1)},
            outputs={"sorted": (dst.whole(), 8)},
        )
        return dst

    benchmark(run)
    bench_json(n=N, kernel="local_sort8", mean_wall_s=_mean_s(benchmark))


def test_throughput_morton_roundtrip(benchmark, bench_json):
    idx = np.arange(1 << 18, dtype=np.uint64)

    def run():
        ax, ay = morton_decode(idx)
        return morton_encode(ax, ay)

    out = benchmark(run)
    bench_json(n=int(idx.shape[0]), mean_wall_s=_mean_s(benchmark))
    assert np.array_equal(out, idx)


def test_throughput_cache_simulator(benchmark, bench_json):
    mapping = ZOrderMapping()
    rng = seeded_rng(0)
    trace = rng.integers(0, 1 << 16, 1 << 16)
    ax, ay = mapping.to_2d(trace)

    def run():
        sim = TextureCacheSim(CacheConfig())
        sim.access(np.asarray(ax), np.asarray(ay))
        return sim.misses

    misses = benchmark(run)
    bench_json(n=1 << 16, misses=misses, mean_wall_s=_mean_s(benchmark))
    assert misses > 0
