"""E11 -- the comparison-count optimality claims (Sections 2.1 and 4.1).

* Adaptive bitonic sorting: < 2 n log n comparisons, data independent.
* One adaptive merge of m values: exactly 2m - log2(m) - 2.
* Sorting networks: Theta(n log^2 n) exchanges -- asymptotically log n
  times more work, the gap that makes GPU-ABiSort "optimal" and the
  networks not.
* The same gap, *measured*: the same workload dispatched through the
  engine registry to GPU-ABiSort and each network backend, comparing
  counted byte traffic.
"""

from __future__ import annotations

import math

import repro
from repro.analysis.complexity import (
    abisort_comparison_count,
    comparisons_upper_bound,
)
from repro.baselines.bitonic_network import bitonic_exchange_count
from repro.baselines.odd_even_merge import odd_even_merge_comparator_count
from repro.core.sequential import SequentialCounters, adaptive_bitonic_sort_sequence
from repro.workloads.generators import generate_keys


def test_counted_comparisons_match_law(benchmark, bench_json):
    n = 1 << 10
    keys = generate_keys("uniform", n, seed=0)
    seq = [(float(k), i) for i, k in enumerate(keys)]

    def run():
        counters = SequentialCounters()
        adaptive_bitonic_sort_sequence(seq, counters)
        return counters.comparisons

    measured = benchmark(run)
    bench_json(n=n, measured=measured,
               bound=comparisons_upper_bound(n))
    assert measured == abisort_comparison_count(n)
    assert measured < comparisons_upper_bound(n)
    print(f"\nn = {n}: measured {measured} comparisons; "
          f"bound 2 n log n = {int(comparisons_upper_bound(n))}")


def test_comparison_table_vs_networks(benchmark, bench_json):
    def build():
        rows = []
        for e in range(8, 21, 4):
            n = 1 << e
            rows.append(
                (
                    n,
                    abisort_comparison_count(n),
                    bitonic_exchange_count(n),
                    odd_even_merge_comparator_count(n) if e <= 16 else None,
                )
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    bench_json(rows=rows)
    print("\n  n        ABiSort cmp    bitonic net    odd-even net")
    for n, abi, bit, oem in rows:
        print(f"  2^{int(math.log2(n)):<3}  {abi:>12}  {bit:>13}  "
              f"{oem if oem is not None else '-':>12}")
        assert abi < bit
        # The ratio approaches (log n)/4 for the bitonic network.
        assert bit / abi > math.log2(n) / 8


def test_measured_work_gap_via_engines(benchmark, bench_json):
    """The asymptotic-work gap as counted telemetry, through the registry.

    The same workload is dispatched (one :func:`repro.sort` per engine) to
    GPU-ABiSort and the three network engines; the per-engine
    ``bytes_moved`` telemetry realises the n log n vs n log^2 n split the
    analytic counts above predict.
    """
    n = 1 << 10
    engines = ("abisort", "bitonic-network", "odd-even-merge",
               "periodic-balanced")
    keys = generate_keys("uniform", n, seed=0)

    def run():
        return {
            engine: repro.sort(
                repro.SortRequest(keys=keys), engine=engine
            ).telemetry
            for engine in engines
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    bench_json(n=n, rows={
        engine: {"stream_ops": t.stream_ops, "bytes_moved": t.bytes_moved}
        for engine, t in rows.items()
    })
    print(f"\n  measured stream-machine work at n = 2^{int(math.log2(n))}:")
    print(f"  {'engine':<20} {'stream ops':>10} {'MB moved':>9}")
    for engine, t in rows.items():
        print(f"  {engine:<20} {t.stream_ops:>10} {t.bytes_moved / 1e6:>9.2f}")
    for engine in engines[1:]:
        assert rows["abisort"].bytes_moved < rows[engine].bytes_moved
