"""Compaction execution: merge live runs down under a planned policy.

:func:`run_compaction` executes the pass/group structure
:class:`repro.planner.models.CompactionCostModel` prices: per pass, live
runs (ascending length, ties by name) are grouped into batches of at
most ``fan_in``, each batch is merged with the cluster layer's
loser-tree merge (:func:`repro.cluster.sharded.merge_sorted_runs` -- the
same merge that reassembles sharded sorts, so compaction output is
bit-identical to sorting the union), and the merged runs are committed
to the manifest before the inputs are deleted.

Crash safety is ordering: (1) write every merged run file
(temp-then-rename), (2) atomically commit the manifest swap, (3) unlink
the consumed inputs.  A crash before (2) leaves the old manifest -- the
new files are unreferenced orphans the next open sweeps; a crash after
(2) leaves unreferenced *old* files, swept the same way.  Either way a
reopened store answers queries bit-identically to some committed state.

Cost accounting follows the model's conventions exactly: comparisons are
the loser tree's own counter, CPU milliseconds price them with the
host's ``cpu_op_ns``, and I/O is charged as the buffered streaming merge
the model assumes -- so a report's measured makespan equals the planner's
prediction whenever the closed-form merge count holds (it always does
for non-empty runs), which is what the fan-in benchmark gates on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cluster.scheduler import lpt
from repro.cluster.sharded import merge_sorted_runs
from repro.planner.models import CompactionCostModel
from repro.store.manifest import RunMeta
from repro.store.runs import write_run
from repro.stream.gpu_model import cpu_sort_time_ms
from repro.stream.stream import PAIR_BYTES

__all__ = ["CompactionReport", "run_compaction"]


@dataclass
class CompactionReport:
    """Everything one compaction did, measured under the model's units."""

    fan_in: int
    devices: int
    passes: int
    runs_before: int
    runs_after: int
    #: Pairs written by merges, summed over passes (rewrite volume).
    merged_pairs: int
    merge_comparisons: int
    modeled_cpu_ms: float
    modeled_io_ms: float
    #: Sum of per-pass LPT makespans -- the measured compaction cost.
    makespan_ms: float
    #: The planner's (or pinned policy's) predicted makespan.
    predicted_ms: float
    wall_time_s: float

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        return (
            f"compacted {self.runs_before} -> {self.runs_after} runs "
            f"(fan-in {self.fan_in} on {self.devices} device(s), "
            f"{self.passes} pass(es)): {self.merged_pairs} pairs rewritten, "
            f"{self.merge_comparisons} comparisons, modeled makespan "
            f"{self.makespan_ms:.2f} ms (predicted {self.predicted_ms:.2f}), "
            f"wall {self.wall_time_s:.3f} s"
        )


def run_compaction(store, *, fan_in: int, devices: int, predicted_ms: float):
    """Execute a compaction on ``store`` (caller holds the store lock).

    ``store`` is the owning :class:`~repro.store.store.SortedStore`; the
    executor drives its manifest, run cache, and disk accounting through
    the store's internal hooks so a crash injected at the commit hook
    (as the crash-safety tests do) leaves the manifest untouched.
    """
    started = time.perf_counter()
    model = CompactionCostModel(
        host=store.config.host, memory_pairs=store.config.memory_pairs
    )
    runs_before = len(store.manifest.runs)
    passes = merged_pairs = comparisons = 0
    cpu_ms = io_ms = makespan_ms = 0.0

    while True:
        live = sorted(
            (run for run in store.manifest.runs if run.n > 0),
            key=lambda run: (run.n, run.name),
        )
        if len(live) <= 1:
            break
        groups = [live[i : i + fan_in] for i in range(0, len(live), fan_in)]
        weights = [
            model.group_estimate([meta.n for meta in group]).cost_ms
            for group in groups
        ]
        assignment, _loads = lpt(weights, range(devices))
        loads = {d: 0.0 for d in range(devices)}
        consumed: list[RunMeta] = []
        produced: list[tuple[RunMeta, object]] = []
        for group, device in zip(groups, assignment):
            if len(group) == 1:
                continue  # singleton carries through unmerged (a free copy)
            lengths = [meta.n for meta in group]
            arrays = [store._run_values(meta) for meta in group]
            merged, comps = merge_sorted_runs(arrays)
            generation = max(meta.generation for meta in group) + 1
            name = store.manifest.new_run_name(generation)
            meta = RunMeta(
                name=name,
                n=int(merged.shape[0]),
                generation=generation,
                min_key=float(merged["key"][0]),
                max_key=float(merged["key"][-1]),
            )
            write_run(store.path / name, merged)
            # Modeled accounting: the streamed buffered merge the cost
            # model assumes, with the tree's actual comparison count.
            estimate = model.group_estimate(lengths)
            merge_ms = cpu_sort_time_ms(comps, store.config.host)
            loads[device] += merge_ms + estimate.modeled_io_ms
            cpu_ms += merge_ms
            io_ms += estimate.modeled_io_ms
            store.disk.reads += len(group)
            store.disk.writes += 1
            store.disk.seeks += model.group_seeks(lengths)
            store.disk.bytes_read += sum(lengths) * PAIR_BYTES
            store.disk.bytes_written += int(merged.nbytes)
            comparisons += comps
            merged_pairs += int(merged.shape[0])
            consumed.extend(group)
            produced.append((meta, merged))
        passes += 1
        makespan_ms += max(loads.values())
        store._commit_compaction(produced, consumed)

    return CompactionReport(
        fan_in=fan_in,
        devices=devices,
        passes=passes,
        runs_before=runs_before,
        runs_after=len(store.manifest.runs),
        merged_pairs=merged_pairs,
        merge_comparisons=comparisons,
        modeled_cpu_ms=cpu_ms,
        modeled_io_ms=io_ms,
        makespan_ms=makespan_ms,
        predicted_ms=predicted_ms,
        wall_time_s=time.perf_counter() - started,
    )
