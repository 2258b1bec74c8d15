"""The sixth layer: a persistent sorted store built on the whole stack.

:class:`SortedStore` turns the sorting system into a storage system.
Each ingested batch is sorted through the engine registry (planner-routed
by default) and persisted as an immutable run in the hybrid layer's
record format; queries answer by k-way loser-tree merge over the live
runs; a planner-driven compactor (:class:`CompactionCostModel` scoring
fan-in x devices candidates, the cluster scheduler balancing merge
groups) folds runs together when :meth:`SortedStore.compact` is called;
and a crash-safe JSON manifest makes reopening a directory recover
exactly the last committed state.

Typical use::

    from repro.store import SortedStore

    store = SortedStore("/tmp/demo-store")
    store.insert(keys)                  # one sorted run per batch
    hits = store.range(0.25, 0.75)      # k-way merged, (key, id) order
    best = store.top_k(10)
    report = store.compact()            # planner picks fan-in & devices

Everything here layers on public seams of the five layers below it:
``repro.sort`` for ingest, :func:`repro.cluster.sharded.merge_sorted_runs`
for queries and compaction merges, the cluster scheduler for device
balancing, and :mod:`repro.planner.models` for the compaction policy.
"""

from repro.planner.models import (
    CompactionCandidate,
    CompactionCostModel,
    CompactionPlan,
    plan_compaction,
)
from repro.store.compaction import CompactionReport, run_compaction
from repro.store.manifest import MANIFEST_NAME, RunMeta, StoreManifest
from repro.store.runs import read_run, read_run_slice, write_run
from repro.store.store import SortedStore, StoreConfig, StoreStats
from repro.stream.stream import PAIR_BYTES

__all__ = [
    "MANIFEST_NAME",
    "PAIR_BYTES",
    "CompactionCandidate",
    "CompactionCostModel",
    "CompactionPlan",
    "CompactionReport",
    "RunMeta",
    "SortedStore",
    "StoreConfig",
    "StoreManifest",
    "StoreStats",
    "plan_compaction",
    "read_run",
    "read_run_slice",
    "run_compaction",
    "write_run",
]
