"""Out-of-core sorting: GPU run formation + CPU k-way merge.

The classic external merge sort, organised the GPUTeraSort way (paper
Section 2.2):

* **reader stage** streams fixed-size chunks from the input file;
* **sort stage** sorts each chunk in GPU memory with GPU-ABiSort (the
  substitution this subpackage exists for: [GGKM05] used the bitonic
  network here) and writes it back as a sorted *run*;
* **merge stage** (CPU) merges the runs with a loser-tree k-way merge,
  reading runs through small buffers and appending to the output file;
* **writer stage** is the buffered append.

The report carries the full cost picture: disk statistics (seeks, bytes),
modeled GPU sorting time, counted CPU merge comparisons, and modeled
end-to-end time -- showing the GGKM05 observation that once the GPU does
the sorting, the pipeline is I/O-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SortInputError
from repro.core.api import ABiSortConfig
from repro.core.bitonic_tree import is_power_of_two
from repro.hybrid.disk import SimulatedDisk
from repro.stream.gpu_model import GEFORCE_7800_GTX, GPUModel
from repro.stream.mapping2d import Mapping2D, ZOrderMapping
from repro.stream.stream import VALUE_DTYPE, concat_pairs

__all__ = ["ExternalSorter", "ExternalSortReport", "LoserTree"]


@dataclass
class ExternalSortReport:
    """Cost accounting of one external sort."""

    n: int = 0
    runs: int = 0
    chunk_size: int = 0
    gpu_modeled_ms: float = 0.0
    merge_comparisons: int = 0
    disk_seeks: int = 0
    disk_bytes: int = 0
    io_modeled_ms: float = 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.n} records in {self.runs} runs of {self.chunk_size}: "
            f"GPU {self.gpu_modeled_ms:.1f} ms, I/O {self.io_modeled_ms:.1f} ms "
            f"({self.disk_seeks} seeks, {self.disk_bytes / 1e6:.1f} MB), "
            f"{self.merge_comparisons} merge comparisons"
        )


class LoserTree:
    """A k-way loser-tree merger.

    The standard external-sort selection structure: the leaves hold one
    (key, payload) entry per input run; internal node ``j`` stores the leaf
    that *lost* the match at ``j``; :attr:`winner` is the overall minimum.
    After the caller consumes the winner and supplies its replacement via
    :meth:`replace_winner`, only the winner's leaf-to-root path is replayed:
    exactly ``log2 k`` comparisons per output element -- the merge-stage
    operation count the report tracks.

    Dead (exhausted) leaves sort after every live entry.
    """

    def __init__(self, k: int):
        if k < 1:
            raise SortInputError("loser tree needs at least one input")
        self.k = 1
        while self.k < max(2, k):
            self.k *= 2
        # Plain Python lists, not numpy arrays: every _less touches these
        # per element, and unboxed float/int scalars compare several times
        # faster than numpy scalar indexing.
        self.keys = [float("inf")] * self.k
        self.payload = [0] * self.k
        self.live = [False] * self.k
        self.tree = [-1] * self.k  # tree[1..k-1] used
        self.winner = -1
        self.comparisons = 0

    def _less(self, a: int, b: int) -> bool:
        # Explicit scalar comparisons instead of building two tuples per
        # match: live leaves sort before dead ones, then keys, then
        # payloads.  Semantically identical to comparing the tuples
        # (not live, key, payload) -- including NaN keys, where both
        # formulations answer False for either direction.
        self.comparisons += 1
        live_a = self.live[a]
        if live_a != self.live[b]:
            return live_a
        key_a, key_b = self.keys[a], self.keys[b]
        if key_a != key_b:
            return key_a < key_b
        return self.payload[a] < self.payload[b]

    def build(self, entries: list[tuple[float, int] | None]) -> None:
        """Initialise the leaves and play the full tournament (O(k))."""
        if len(entries) > self.k:
            raise SortInputError(f"{len(entries)} entries for {self.k} leaves")
        for i, entry in enumerate(entries):
            if entry is not None:
                self.keys[i] = float(entry[0])
                self.payload[i] = int(entry[1])
                self.live[i] = True

        def play(j: int) -> int:
            if j >= self.k:
                return j - self.k
            left = play(2 * j)
            right = play(2 * j + 1)
            if self._less(left, right):
                self.tree[j] = right
                return left
            self.tree[j] = left
            return right

        self.winner = play(1)

    def winner_entry(self) -> tuple[float, int]:
        """The current minimum (key, payload)."""
        return float(self.keys[self.winner]), int(self.payload[self.winner])

    def replace_winner(self, key: float, payload: int, live: bool) -> None:
        """Replace the winner's leaf and replay its path (log2 k compares)."""
        leaf = self.winner
        self.keys[leaf] = key if live else np.inf
        self.payload[leaf] = payload
        self.live[leaf] = live
        winner = leaf
        j = (leaf + self.k) // 2
        while j >= 1:
            opponent = self.tree[j]
            if opponent >= 0 and self._less(opponent, winner):
                self.tree[j] = winner
                winner = opponent
            j //= 2
        self.winner = winner

    @property
    def exhausted(self) -> bool:
        """True when every input run has been fully consumed."""
        return not any(self.live)


class ExternalSorter:
    """Out-of-core sort of a value/pointer-pair file on a simulated disk.

    Parameters
    ----------
    chunk_size:
        Records sorted in-core per run (power of two: each chunk goes
        straight to GPU-ABiSort).  Models GPU memory capacity.
    config, gpu, mapping:
        The GPU-ABiSort variant and the hardware/cost model for the sort
        stage.
    merge_buffer:
        Records buffered per run during the merge (models main-memory
        budget; smaller buffers mean more seeks, visible in the report).
    trace:
        Run the per-element loser-tree merge and sort every chunk on the
        stream interpreter (see :mod:`repro.exec`) instead of merging with
        numpy and sorting chunks through the stream tier's memo.  Output,
        disk statistics, and modeled times are identical either way.
    """

    def __init__(
        self,
        chunk_size: int = 1 << 14,
        *,
        config: ABiSortConfig | None = None,
        gpu: GPUModel = GEFORCE_7800_GTX,
        mapping: Mapping2D | None = None,
        merge_buffer: int = 1 << 10,
        trace: bool = False,
    ):
        if not is_power_of_two(chunk_size) or chunk_size < 2:
            raise SortInputError(
                f"chunk size {chunk_size} must be a power of two >= 2 "
                f"(each chunk is sorted in-core by GPU-ABiSort)"
            )
        if merge_buffer < 1:
            raise SortInputError("merge buffer must hold at least one record")
        self.chunk_size = chunk_size
        self.config = config or ABiSortConfig()
        self.gpu = gpu
        self.mapping = mapping or ZOrderMapping()
        self.merge_buffer = merge_buffer
        self.trace = trace

    def sort_file(
        self, disk: SimulatedDisk, input_name: str, output_name: str
    ) -> ExternalSortReport:
        """Sort ``input_name`` into ``output_name``; returns the report."""
        if disk.dtype != VALUE_DTYPE:
            raise SortInputError("external sorter operates on VALUE_DTYPE files")
        n = disk.size(input_name)
        if n == 0:
            raise SortInputError("cannot sort an empty file")
        report = ExternalSortReport(n=n, chunk_size=self.chunk_size)

        run_names = self._form_runs(disk, input_name, report)
        self._merge_runs(disk, run_names, output_name, report)

        report.disk_seeks = disk.stats.seeks
        report.disk_bytes = disk.stats.bytes_read + disk.stats.bytes_written
        report.io_modeled_ms = disk.stats.io_time_ms()
        return report

    # -- run formation (reader + GPU sort + writer) ---------------------------

    def _form_runs(
        self, disk: SimulatedDisk, input_name: str, report: ExternalSortReport
    ) -> list[str]:
        # late: repro.exec imports LoserTree from this module
        from repro.exec.stream_tier import modeled_cost, sort_on_stream

        run_names: list[str] = []
        offset = 0
        n = disk.size(input_name)
        while offset < n:
            chunk = disk.read(input_name, offset, self.chunk_size)
            if chunk.shape[0] >= 2:
                sorted_chunk, machine = sort_on_stream(
                    self.config, chunk, trace=self.trace
                )
                report.gpu_modeled_ms += modeled_cost(
                    machine, self.gpu, self.mapping
                ).total_ms
            else:
                sorted_chunk = chunk
            run = f"{input_name}.run{len(run_names)}"
            disk.write_file(run, sorted_chunk)
            run_names.append(run)
            offset += chunk.shape[0]
        report.runs = len(run_names)
        return run_names

    # -- k-way merge (CPU stage) ----------------------------------------------

    def _merge_runs(
        self,
        disk: SimulatedDisk,
        run_names: list[str],
        output_name: str,
        report: ExternalSortReport,
    ) -> None:
        k = len(run_names)
        if k == 1:
            data = disk.read(run_names[0], 0, disk.size(run_names[0]))
            disk.write_file(output_name, data)
            disk.delete(run_names[0])
            return
        if not self.trace and self._merge_runs_vectorized(
            disk, run_names, output_name, report
        ):
            return

        buffers: list[np.ndarray] = []
        cursors = [0] * k  # next unread element within the buffer
        offsets = [0] * k  # next read offset within the run file
        entries: list[tuple[float, int] | None] = []
        for r, run in enumerate(run_names):
            buf = disk.read(run, 0, self.merge_buffer)
            buffers.append(buf)
            offsets[r] = buf.shape[0]
            cursors[r] = 1
            # Payload is the record id: leaves order by (key, id), exactly
            # the global total order, so duplicate keys merge correctly.
            # The winning run is identified by the winner *leaf* index.
            entries.append((float(buf["key"][0]), int(buf["id"][0])))
        tree = LoserTree(k)
        tree.build(entries + [None] * (tree.k - k))

        out_buf = np.empty(max(self.merge_buffer, 1), dtype=VALUE_DTYPE)
        out_pos = 0
        first_out = True
        for _produced in range(report.n):
            key, rec_id = tree.winner_entry()
            run_idx = tree.winner
            out_buf[out_pos]["key"] = np.float32(key)
            out_buf[out_pos]["id"] = np.uint32(rec_id)
            out_pos += 1
            if out_pos == out_buf.shape[0]:
                if first_out:
                    disk.write_file(output_name, out_buf)
                    first_out = False
                else:
                    disk.append(output_name, out_buf)
                out_pos = 0

            # Advance the winning run: refill its buffer when drained.
            if cursors[run_idx] >= buffers[run_idx].shape[0]:
                buf = disk.read(run_names[run_idx], offsets[run_idx], self.merge_buffer)
                buffers[run_idx] = buf
                offsets[run_idx] += buf.shape[0]
                cursors[run_idx] = 0
            buf = buffers[run_idx]
            if cursors[run_idx] < buf.shape[0]:
                c = cursors[run_idx]
                cursors[run_idx] = c + 1
                tree.replace_winner(
                    float(buf["key"][c]), int(buf["id"][c]), live=True
                )
            else:  # run exhausted
                tree.replace_winner(np.inf, 0, live=False)

        if out_pos:
            if first_out:
                disk.write_file(output_name, out_buf[:out_pos])
            else:
                disk.append(output_name, out_buf[:out_pos])
        report.merge_comparisons = tree.comparisons
        for run in run_names:
            disk.delete(run)

    def _merge_runs_vectorized(
        self,
        disk: SimulatedDisk,
        run_names: list[str],
        output_name: str,
        report: ExternalSortReport,
    ) -> bool:
        """The vectorized merge stage: numpy merge + charged-event replay.

        Computes the merged output from uncharged :meth:`SimulatedDisk.peek`
        views, then replays the **exact** charged block accesses the
        reference loop performs, derived from each output element's
        provenance: per run, a refill read lands when its ``j``-th element
        is consumed with ``j+1`` on a buffer boundary (plus one trailing
        empty read at exhaustion), and an output block flush lands every
        ``merge_buffer`` emitted elements, write before read when both hit
        the same element.  File contents and every
        :class:`~repro.hybrid.disk.DiskStats` counter (seek order
        included) therefore match the reference tier exactly.  Returns
        ``False`` -- disk untouched -- when two runs share a (key, id)
        composite (a file that repeats ids across chunks); the caller then
        runs the reference loop.
        """
        from repro.analysis.complexity import loser_tree_merge_comparisons
        from repro.exec.vectorized import strict_order

        runs = [disk.peek(name) for name in run_names]
        merged = concat_pairs(runs)
        gather = strict_order(merged)
        if gather is None:
            return False
        merged = merged[gather]
        lengths = [run.shape[0] for run in runs]
        provenance = np.repeat(np.arange(len(runs)), lengths)[gather]
        n = merged.shape[0]
        buffer = self.merge_buffer

        # (output index, phase, run, read offset): phase 0 = output-block
        # write, phase 1 = refill read -- the reference flushes before it
        # advances the winning run.
        events: list[tuple[int, int, int, int]] = []
        for r in range(len(run_names)):
            length = runs[r].shape[0]
            positions = np.flatnonzero(provenance == r)
            consumed = np.arange(1, length + 1)
            refill = (consumed % buffer == 0) | (consumed == length)
            for j in np.flatnonzero(refill):
                events.append((int(positions[j]), 1, r, int(j) + 1))
        for i in range(buffer - 1, n, buffer):
            events.append((i, 0, -1, 0))
        events.sort()

        for name in run_names:  # the setup reads that prime the tree
            disk.read(name, 0, buffer)
        first_out = True
        write_start = 0
        for i, phase, r, offset in events:
            if phase == 0:
                block = merged[write_start : i + 1]
                if first_out:
                    disk.write_file(output_name, block)
                    first_out = False
                else:
                    disk.append(output_name, block)
                write_start = i + 1
            else:
                disk.read(run_names[r], offset, buffer)
        if write_start < n:
            block = merged[write_start:]
            if first_out:
                disk.write_file(output_name, block)
            else:
                disk.append(output_name, block)

        report.merge_comparisons = loser_tree_merge_comparisons(n, len(run_names))
        for name in run_names:
            disk.delete(name)
        return True
