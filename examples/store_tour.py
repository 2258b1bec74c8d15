"""Tour of the persistent sorted store: ingest, query, compact, reopen.

Run:  python examples/store_tour.py

Walks the store layer (``repro.store``, docs/store.md):

* ingesting batches as immutable sorted runs (each one sorted through
  the engine registry and persisted crash-safely);
* range and top-k queries answered by k-way loser-tree merge over the
  live runs, bit-identical to one big ``repro.sort``;
* the compaction planner scoring fan-in x devices candidates, and a
  background compaction folding the runs down while the store keeps
  answering;
* reopening the directory and recovering exactly the committed state;
* the lifetime telemetry report (write/read amplification included).
"""

from __future__ import annotations

import tempfile

import numpy as np

import repro
from repro.analysis.cluster_report import format_store_stats
from repro.store import SortedStore


def ingest_demo(store: SortedStore, rng) -> np.ndarray:
    """Insert six batches; return the concatenated keys for checking."""
    print(f"ingesting 6 batches into {store.path} ...")
    batches = []
    for i in range(6):
        keys = rng.random(2048, dtype=np.float32)
        meta = store.insert(keys)
        batches.append(keys)
        print(f"  batch {i}: run {meta.name} "
              f"[{meta.min_key:.4f}, {meta.max_key:.4f}]")
    print(f"store holds {store.run_count} runs, {len(store)} pairs")
    return np.concatenate(batches)


def query_demo(store: SortedStore, all_keys: np.ndarray) -> None:
    """Range and top-k answers, checked against one big sort."""
    reference = repro.sort(
        repro.SortRequest(keys=all_keys), engine="cpu-std"
    ).values
    window = store.range(0.25, 0.30)
    mask = (reference["key"] >= 0.25) & (reference["key"] <= 0.30)
    print(f"range [0.25, 0.30]: {window.shape[0]} pairs, bit-identical to "
          f"one big sort: {np.array_equal(window, reference[mask])}")
    top = store.top_k(5)
    print(f"top 5 keys: {[round(float(k), 4) for k in top['key']]}, "
          f"bit-identical: {np.array_equal(top, reference[:5])}")


def compaction_demo(store: SortedStore) -> None:
    """Planner-scored candidates, then the compaction they pick."""
    print("\nthe compaction planner's scored candidates:")
    print(store.compaction_plan().explain())
    store.compact()
    print(f"compaction done: store now {store.run_count} run(s)")


def reopen_demo(path: str, all_keys: np.ndarray) -> None:
    """A fresh handle on the directory recovers the committed state."""
    reopened = SortedStore(path)
    reference = repro.sort(
        repro.SortRequest(keys=all_keys), engine="cpu-std"
    ).values
    same = np.array_equal(reopened.range(-1.0, 2.0), reference)
    print(f"\nreopened {path}: {reopened.run_count} run(s), "
          f"{len(reopened)} pairs, queries bit-identical: {same}")
    print(format_store_stats(reopened.stats, title="reopened store stats"))


def main() -> None:
    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory() as tmp:
        store = SortedStore(tmp, engine="cpu-std")
        all_keys = ingest_demo(store, rng)
        query_demo(store, all_keys)
        compaction_demo(store)
        query_demo(store, all_keys)
        reopen_demo(tmp, all_keys)


if __name__ == "__main__":
    main()
