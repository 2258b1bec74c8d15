"""Compaction execution: merge live runs down under a planned policy.

:func:`run_compaction` executes the schedule
:meth:`repro.planner.models.CompactionCostModel.passes` prices: per pass,
live runs (ascending length, ties by name) are grouped as the model
groups them and placed on the devices its LPT picks, each group is
merged with the cluster layer's loser-tree merge
(:func:`repro.cluster.sharded.merge_sorted_runs` -- the same merge that
reassembles sharded sorts, so compaction output is bit-identical to
sorting the union), and the merged runs are committed to the manifest
before the inputs are deleted.

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

from repro.cluster.sharded import merge_sorted_runs
from repro.planner.models import CompactionCostModel
from repro.store.manifest import RunMeta
from repro.store.runs import write_run
from repro.stream.gpu_model import cpu_sort_time_ms

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


def run_compaction(
    store, model: CompactionCostModel, *, fan_in: int, devices: int,
    predicted_ms: float,
):
    """Execute ``model``'s compaction schedule on ``store`` (caller holds
    the store lock).

    ``store`` is the owning :class:`~repro.store.store.SortedStore`; the
    executor drives its manifest, run cache, and disk accounting through
    the store's internal hooks so a crash injected at the commit hook
    (as the crash-safety tests do) leaves the manifest untouched.
    """
    started = time.perf_counter()
    runs_before = len(store.manifest.runs)
    schedule = model.passes([run.n for run in store.manifest.runs], fan_in, devices)
    merged_pairs = comparisons = 0
    cpu_ms = io_ms = makespan_ms = 0.0

    for groups, assignment, estimates, _predicted_pass_ms in schedule:
        live = sorted(
            (run for run in store.manifest.runs if run.n > 0),
            key=lambda run: (run.n, run.name),
        )
        loads = dict.fromkeys(range(devices), 0.0)
        consumed: list[RunMeta] = []
        produced: list[tuple[RunMeta, object]] = []
        for group, device, estimate in zip(groups, assignment, estimates):
            runs = live[group]
            if len(runs) == 1:
                continue  # singleton carries through unmerged (a free copy)
            merged, comps = merge_sorted_runs([store._run_values(m) for m in runs])
            generation = max(meta.generation for meta in runs) + 1
            meta = RunMeta(
                name=store.manifest.new_run_name(generation),
                n=int(merged.shape[0]),
                generation=generation,
                min_key=float(merged["key"][0]),
                max_key=float(merged["key"][-1]),
            )
            write_run(store.path / meta.name, merged)
            # Modeled accounting: the streamed buffered merge the cost
            # model assumes, with the tree's actual comparison count.
            merge_ms = cpu_sort_time_ms(comps, store.config.host)
            loads[device] += merge_ms + estimate.modeled_io_ms
            cpu_ms += merge_ms
            io_ms += estimate.modeled_io_ms
            store.disk.add(model.group_io([run.n for run in runs]))
            comparisons += comps
            merged_pairs += meta.n
            consumed.extend(runs)
            produced.append((meta, merged))
        makespan_ms += max(loads.values())
        store._commit_compaction(produced, consumed)

    return CompactionReport(
        fan_in=fan_in,
        devices=devices,
        passes=len(schedule),
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
