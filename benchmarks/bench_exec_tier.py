"""E27 -- the vectorized execution tier's wall-clock claim, gated.

The execution tier (:mod:`repro.exec`) promises strictly more speed for
exactly nothing: the ``vectorized`` backend must return byte-identical
output and identical modeled telemetry to the ``reference`` loser tree,
only faster.  Both halves are gated here:

1.  **The k-way merge.**  2^20 pairs pre-split into k sorted runs for
    k in {2, 8, 32} are merged by both tiers; outputs and comparison
    counts must match exactly, and the vectorized tier must win by at
    least :data:`GATE` x wall clock (default 10x -- the acceptance bar;
    CI's cross-hardware smoke relaxes it to 5x via ``REPRO_EXEC_GATE``).

2.  **The out-of-core pipeline.**  One :class:`ExternalSorter` run per
    tier over the same input: byte-identical output files, equal
    :class:`DiskStats`, equal reports (GPU-modeled milliseconds, seeks,
    I/O, comparisons) -- the vectorized tier replays the reference disk
    access pattern rather than inventing a cheaper one.

Results land in ``BENCH_exec_tier.json`` at the repository *root* (see
``TRACKED_BENCHES`` in ``conftest.py``): the file is committed, so the
speedup history survives across pull requests.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cluster.sharded import merge_sorted_runs
from repro.hybrid.disk import SimulatedDisk
from repro.hybrid.external import ExternalSorter
from repro.stream.stream import VALUE_DTYPE
from repro.workloads.rng import seeded_rng

MERGE_N = 1 << 20
KS = (2, 8, 32)
#: Required vectorized-over-reference merge speedup.  The default is the
#: acceptance bar; CI smoke runs set ``REPRO_EXEC_GATE=5`` to absorb
#: shared-runner jitter without letting a regression through.
GATE = float(os.environ.get("REPRO_EXEC_GATE", "10"))

EXTERNAL_N = 1 << 15
EXTERNAL_CHUNK = 1 << 11
EXTERNAL_BUFFER = 1 << 8


def _sorted_runs(n: int, k: int, rng) -> list[np.ndarray]:
    """``n`` random pairs with globally unique ids, as ``k`` sorted runs."""
    values = np.empty(n, dtype=VALUE_DTYPE)
    values["key"] = rng.random(n, dtype=np.float32)
    values["id"] = np.arange(n, dtype=np.uint32)
    runs = []
    for chunk in np.array_split(values, k):
        order = np.lexsort((chunk["id"], chunk["key"]))
        runs.append(np.ascontiguousarray(chunk[order]))
    return runs


def test_merge_speedup_and_identity(benchmark, bench_json):
    rng = seeded_rng(7806)
    inputs = {k: _sorted_runs(MERGE_N, k, rng) for k in KS}

    def run_all():
        rows = {}
        for k in KS:
            runs = inputs[k]
            start = time.perf_counter()
            ref, ref_comparisons = merge_sorted_runs(runs, trace=True)
            reference_s = time.perf_counter() - start
            vectorized_s = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                vec, vec_comparisons = merge_sorted_runs(runs)
                vectorized_s = min(
                    vectorized_s, time.perf_counter() - start
                )
            assert ref.tobytes() == vec.tobytes(), f"k={k}: outputs differ"
            assert ref_comparisons == vec_comparisons, (
                f"k={k}: modeled comparisons diverge "
                f"({ref_comparisons} vs {vec_comparisons})"
            )
            rows[k] = {
                "n": MERGE_N,
                "k": k,
                "comparisons": ref_comparisons,
                "reference_s": reference_s,
                "vectorized_s": vectorized_s,
                "speedup": reference_s / vectorized_s,
            }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    bench_json(rows=rows, gate=GATE)
    print(f"\nk-way merge of {MERGE_N} pairs, reference vs vectorized:")
    for k, row in rows.items():
        print(
            f"  k={k:>2}: {row['reference_s'] * 1e3:9.1f} ms -> "
            f"{row['vectorized_s'] * 1e3:7.1f} ms  "
            f"({row['speedup']:.1f}x, gate {GATE:.0f}x)"
        )
    for k, row in rows.items():
        assert row["speedup"] >= GATE, (
            f"k={k}: vectorized merge speedup {row['speedup']:.1f}x "
            f"below the {GATE:.0f}x gate"
        )


def test_external_pipeline_identity(benchmark, bench_json):
    rng = seeded_rng(7806)
    values = np.empty(EXTERNAL_N, dtype=VALUE_DTYPE)
    values["key"] = rng.random(EXTERNAL_N, dtype=np.float32)
    values["id"] = np.arange(EXTERNAL_N, dtype=np.uint32)

    def run_tier(trace: bool):
        sorter = ExternalSorter(
            EXTERNAL_CHUNK, merge_buffer=EXTERNAL_BUFFER, trace=trace
        )
        disk = SimulatedDisk(VALUE_DTYPE)
        disk.write_file("input", values)
        start = time.perf_counter()
        report = sorter.sort_file(disk, "input", "output")
        elapsed = time.perf_counter() - start
        out = disk.read("output", 0, disk.size("output")).copy()
        return out, report, disk.stats, elapsed

    def run_both():
        return run_tier(True), run_tier(False)

    (ref, ref_report, ref_stats, ref_s), (
        vec,
        vec_report,
        vec_stats,
        vec_s,
    ) = benchmark.pedantic(run_both, rounds=1, iterations=1)

    assert ref.tobytes() == vec.tobytes(), "pipeline outputs differ"
    assert ref_report == vec_report, "modeled reports diverge"
    assert ref_stats == vec_stats, "modeled disk accounting diverges"

    speedup = ref_s / vec_s
    bench_json(
        n=EXTERNAL_N,
        chunk=EXTERNAL_CHUNK,
        buffer=EXTERNAL_BUFFER,
        reference_s=ref_s,
        vectorized_s=vec_s,
        speedup=speedup,
        merge_comparisons=ref_report.merge_comparisons,
    )
    print(
        f"\nout-of-core sort of {EXTERNAL_N} pairs "
        f"(chunk {EXTERNAL_CHUNK}, buffer {EXTERNAL_BUFFER}): "
        f"{ref_s * 1e3:.1f} ms -> {vec_s * 1e3:.1f} ms ({speedup:.1f}x), "
        f"outputs and telemetry identical"
    )
