"""Quickstart: sort value/pointer pairs with GPU-ABiSort.

Run:  python examples/quickstart.py

Covers the essentials: the unified engine API (repro.sort / SortRequest /
SortResult), pinning GPU-ABiSort by engine name, variants, and the
stream-operation telemetry that the paper's complexity story is about.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.workloads.records import verify_sort_output
from repro.workloads.rng import seeded_rng


def main() -> None:
    rng = seeded_rng(42)
    n = 1 << 14

    # The paper's workload: uniform random float32 keys; the id field (the
    # "pointer") is both the record reference and the secondary sort key
    # that makes all elements distinct (Section 8).
    keys = rng.random(n, dtype=np.float32)
    values = repro.make_values(keys)

    # engine="abisort" is the paper's benchmarked configuration: overlapped
    # schedule (Section 5.4), Section-7 optimizations, GPU semantics.
    result = repro.sort(repro.SortRequest(values=values), engine="abisort").values
    verify_sort_output(values, result)
    print(f"sorted {n} value/pointer pairs; first keys: {result['key'][:5]}")

    # Plain keys work too (ids default to positions); the returned ids
    # reorder any payload.
    res = repro.sort(repro.SortRequest(keys=keys), engine="abisort")
    assert np.array_equal(keys[res.ids], res.keys)

    # With no engine named, repro.sort lets the planner pick any registered
    # backend.  The SortResult carries the telemetry the old code scraped
    # off sorter.last_machine.
    res = repro.sort(repro.SortRequest(keys=keys))
    assert np.array_equal(res.values, result)
    print(f"engine {res.engine!r}: {res.telemetry.summary()}")
    print(f"registered engines: {', '.join(repro.engines.available())}")

    # Variants: the faithful Appendix-A program (O(log^3 n) stream ops) vs
    # the overlapped one (O(log^2 n)), with or without Section 7 -- each a
    # registered engine.
    for label, engine in [
        ("Appendix A, unoptimized ", "abisort-sequential"),
        ("overlapped, unoptimized ", "abisort-overlapped"),
        ("overlapped, optimized   ", "abisort"),
    ]:
        res = repro.sort(repro.SortRequest(keys=keys), engine=engine)
        assert np.array_equal(res.values, result)
        t = res.telemetry
        print(f"{label}: {t.stream_ops:5d} stream ops, "
              f"{t.kernel_instances:9d} kernel instances, "
              f"{t.bytes_moved / 1e6:7.1f} MB moved")


if __name__ == "__main__":
    main()
