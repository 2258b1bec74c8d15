"""GPU-ABiSort: the stream-level sorting program (Sections 5 and 6).

:class:`GPUABiSorter` drives the kernels of :mod:`repro.core.kernels` over a
:class:`~repro.stream.context.StreamMachine` according to the memory layout
and schedules of :mod:`repro.core.layout`:

* ``schedule="sequential"`` executes every phase of every stage as its own
  stream operation -- the faithful Appendix-A program (Listings 2-5),
  O(log^3 n) stream operations in total;
* ``schedule="overlapped"`` starts a new stage every other step (Section
  5.4, Figure 6), executing each recursion level in ``2j - 1`` steps and the
  sort in O(log^2 n) stream operations.  A step issues at most two kernel
  launches (the phase-0 kernel of the newly started stage plus one combined
  phase-``i`` launch over the multi-block substream of all continuing
  stages).

GPU semantics (Section 6.1) are the default: input and output streams are
kept distinct -- the pq streams ping-pong, the node stream is split into a
permanent input and a permanent output stream, and "after each step of the
algorithm, all nodes that have just been written to the output stream are
simply copied back to the input stream" (counted copy operations).  With
``gpu_semantics=False`` the driver instead runs in the Brook-style model of
the pseudo code, where one stream may be kernel input and output because
reads complete before writes.

The data flow per recursion level ``j`` (Listing 5):

1. ``extract_roots`` seeds stage 0 with each tree's root node and spare
   value (one stream operation using statically-addressed gathers).
2. Stages/phases run per the schedule; phase 0 writes (root value, spare
   value) pairs, phases ``i > 0`` write modified node pairs, all into the
   Table-1 blocks of the workspace half ``[0, n)`` of the node stream.
3. After the last stage the workspace holds the merged sequences in order;
   their values are copied into the tree half ``[n, 2n)``, whose static
   in-order child links turn them back into bitonic trees for level
   ``j + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SortInputError, StreamError
from repro.core import kernels
from repro.core import layout
from repro.core.bitonic_tree import is_power_of_two
from repro.core.values import check_values, reference_sort
from repro.stream.context import StreamMachine
from repro.stream.iterator import IteratorStream
from repro.stream.stream import NODE_DTYPE, PQ_DTYPE, VALUE_DTYPE, Stream, Substream

__all__ = ["GPUABiSorter", "SCHEDULES"]

SCHEDULES = ("sequential", "overlapped")


@dataclass
class _SortState:
    """Per-sort streams and bookkeeping."""

    n: int
    log_n: int
    machine: StreamMachine
    nodes_in: Stream
    nodes_out: Stream  # == nodes_in in Brook mode
    pq: list[Stream]  # [pq] in Brook mode, [pq_a, pq_b] in GPU mode
    pq_parity: int = 0
    level: int = 0
    tag: str = ""


class GPUABiSorter:
    """Sort value/pointer pairs with adaptive bitonic sorting on streams.

    Parameters
    ----------
    schedule:
        ``"overlapped"`` (Section 5.4, the default) or ``"sequential"``
        (Appendix A).
    gpu_semantics:
        Enforce distinct input/output streams with ping-pong and copy-back
        (Section 6.1).  ``False`` selects the Brook-style single-stream
        model of the pseudo code.
    validate_levels:
        Host-side debugging aid: after every recursion level, check that the
        tree half holds sorted runs of the expected length and direction.
        It reads stream contents, so it needs a machine that executes
        kernels (the default one).

    :meth:`sort` takes the stream machine to run on, as the networks'
    stream functions do.
    """

    def __init__(
        self,
        *,
        schedule: str = "overlapped",
        gpu_semantics: bool = True,
        validate_levels: bool = False,
    ):
        if schedule not in SCHEDULES:
            raise SortInputError(
                f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
            )
        self.schedule = schedule
        self.gpu_semantics = gpu_semantics
        self.validate_levels = validate_levels
        self.last_machine: StreamMachine | None = None

    # -- public API ---------------------------------------------------------

    def sort(
        self, values: np.ndarray, machine: StreamMachine | None = None
    ) -> np.ndarray:
        """Sort a ``VALUE_DTYPE`` array ascending by (key, id).

        The input length must be a power of two (paper Sections 4 and 9).
        ``machine`` is the stream machine to run on (it must enforce
        ``distinct_io == gpu_semantics``), e.g. ``StreamMachine
        (trace_gathers=True)`` to record gather traces; by default the
        sort builds a private one.  Returns a new array; the machine used
        for the run stays available as :attr:`last_machine` for op-count
        inspection.
        """
        state = self._setup(values, machine)
        self.last_machine = state.machine
        self._init_trees(state, values)
        for j in range(1, state.log_n + 1):
            self._run_level(state, j)
            if self.validate_levels:
                self._check_level(state, j)
        return self._result(state)

    # -- setup --------------------------------------------------------------

    def _setup(
        self, values: np.ndarray, machine: StreamMachine | None = None
    ) -> _SortState:
        check_values(values)
        n = values.shape[0]
        if n < 2 or not is_power_of_two(n):
            raise SortInputError(
                f"input length {n} must be a power of two >= 2 "
                f"(pad with repro.workloads.records.pad_to_power_of_two)"
            )
        if machine is None:
            machine = StreamMachine(distinct_io=self.gpu_semantics)
        nodes_in = machine.alloc("nodes_in", NODE_DTYPE, 2 * n)
        if self.gpu_semantics:
            nodes_out = machine.alloc("nodes_out", NODE_DTYPE, 2 * n)
            pq = [
                machine.alloc("pq_a", PQ_DTYPE, 2 * n),
                machine.alloc("pq_b", PQ_DTYPE, 2 * n),
            ]
        else:
            nodes_out = nodes_in
            pq = [machine.alloc("pq", PQ_DTYPE, 2 * n)]
        return _SortState(
            n=n,
            log_n=n.bit_length() - 1,
            machine=machine,
            nodes_in=nodes_in,
            nodes_out=nodes_out,
            pq=pq,
        )

    def _init_trees(self, state: _SortState, values: np.ndarray) -> None:
        """Listing 2 initialisation: seed ``[n, 2n)`` with values + links."""
        n = state.n
        source = state.machine.wrap("source", values.copy())
        state.machine.kernel(
            "init_tree_links",
            instances=n,
            body=kernels.init_tree_links_body,
            inputs={"values": (source.whole(), 1)},
            iterators={"slots": (IteratorStream(n, 2 * n), 1)},
            outputs={"nodes": (state.nodes_in.sub(n, 2 * n), 1)},
            tag="init",
        )

    # -- per-level execution --------------------------------------------------

    def _run_level(self, state: _SortState, j: int) -> None:
        state.level = j
        state.tag = f"level{j}"
        self._extract_roots(state, j)
        if self.schedule == "sequential":
            steps = layout.sequential_schedule(j)
        else:
            steps = layout.overlapped_schedule(j)
        self._run_steps(state, j, steps)
        self._level_output_copy(state, j)

    def _run_steps(
        self, state: _SortState, j: int, steps: list[list[tuple[int, int]]]
    ) -> None:
        """Execute schedule steps: phase-0 launches plus combined phase-i."""
        for active in steps:
            zero = [(k, i) for k, i in active if i == 0]
            rest = [(k, i) for k, i in active if i > 0]
            for k, _i in zero:
                self._phase0_op(state, j, k)
            if rest:
                self._phaseI_op(state, j, rest)
            state.pq_parity ^= 1

    # -- stream-op builders ---------------------------------------------------

    def _pq_segment(self, state: _SortState, j: int, k: int) -> tuple[int, int]:
        """The pq-stream element range reserved for stage ``k`` of level j.

        Stages hold two indexes per instance; segments are packed in stage
        order so the overlapped schedule's concurrent stages never collide:
        offset ``2 * (2^k - 1) * num_trees``.
        """
        trees = layout.num_trees(state.log_n, j)
        start = 2 * ((1 << k) - 1) * trees
        length = 2 * layout.stage_instances(state.log_n, j, k)
        return start, start + length

    def _pq_streams(self, state: _SortState) -> tuple[Stream, Stream]:
        """(input, output) pq streams for the current step parity."""
        if len(state.pq) == 1:
            return state.pq[0], state.pq[0]
        return state.pq[state.pq_parity], state.pq[state.pq_parity ^ 1]

    def _copy_back(self, state: _SortState, sub: Substream, values_only: bool) -> None:
        """GPU mode: mirror freshly written output blocks into the input stream."""
        if not self.gpu_semantics:
            return
        src = sub
        dst = state.nodes_in.multi(sub.blocks)
        if values_only:
            state.machine.copy_values(src, dst, name="copy", tag=state.tag)
        else:
            state.machine.copy(src, dst, name="copy", tag=state.tag)

    def _extract_roots(self, state: _SortState, j: int) -> None:
        n, log_n = state.n, state.log_n
        trees = layout.num_trees(log_n, j)
        half = 1 << (j - 1)
        t = np.arange(trees, dtype=np.int64)
        root_slots = n + (2 * t + 1) * half - 1
        spare_slots = n + (2 * t + 2) * half - 1
        roots_out = state.nodes_out.sub(trees, 2 * trees)
        spares_out = state.nodes_out.sub(0, trees)
        state.machine.kernel(
            "extract_roots",
            instances=trees,
            body=kernels.extract_roots_body,
            gathers={"trees": state.nodes_in},
            consts={"root_slots": root_slots, "spare_slots": spare_slots},
            outputs={"roots": (roots_out, 1)},
            value_only_outputs={"spares": (spares_out, 1)},
            tag=state.tag,
        )
        self._copy_back(state, roots_out, values_only=False)
        self._copy_back(state, spares_out, values_only=True)

    def _phase0_op(self, state: _SortState, j: int, k: int) -> None:
        """Launch the phase-0 kernel of stage ``k`` (Listing 3)."""
        log_n = state.log_n
        instances = layout.stage_instances(log_n, j, k)
        block = layout.phase_block(log_n, j, k, 0)
        lo, hi = block.node_range  # == [0, 2 * instances)
        # Listing 5: roots come from node slots [len, 2*len) (the phase-1
        # output of the previous stage, or the extract-roots output for
        # stage 0) and spares from [0, len).value (the previous phase-0
        # output); len == instances in node units.
        roots_in = state.nodes_in.sub(instances, 2 * instances)
        spares_in = state.nodes_in.sub(0, instances)
        values_out = state.nodes_out.sub(lo, hi)
        _pq_in, pq_out_stream = self._pq_streams(state)
        seg = self._pq_segment(state, j, k)
        pq_out = pq_out_stream.sub(*seg)
        state.machine.kernel(
            "phase0",
            instances=instances,
            body=kernels.phase0_body,
            inputs={"roots": (roots_in, 1)},
            value_only_inputs={"spares": (spares_in, 1)},
            consts={"reverse": kernels.reverse_flags(instances, 1 << k)},
            outputs={"pq": (pq_out, 2)},
            value_only_outputs={"values": (values_out, 2)},
            tag=state.tag,
        )
        self._copy_back(state, values_out, values_only=True)

    def _phaseI_op(
        self, state: _SortState, j: int, active: list[tuple[int, int]]
    ) -> None:
        """Launch one combined phase-``i > 0`` kernel over all given stages.

        ``active`` lists (stage, phase) with phase >= 1; in the sequential
        schedule it has one entry, in the overlapped schedule one entry per
        continuing stage.  Input pq segments, output node blocks, dest
        iterator ranges, and direction constants are concatenated in stage
        order.
        """
        log_n = state.log_n
        active = sorted(active)
        pq_in_stream, pq_out_stream = self._pq_streams(state)

        pq_blocks: list[tuple[int, int]] = []
        node_blocks: list[tuple[int, int]] = []
        dest_ranges: list[tuple[int, int]] = []
        reverse_parts: list[np.ndarray] = []
        total_instances = 0
        for k, i in active:
            instances = layout.stage_instances(log_n, j, k)
            total_instances += instances
            pq_blocks.append(self._pq_segment(state, j, k))
            node_blocks.append(layout.phase_block(log_n, j, k, i).node_range)
            nxt = layout.phase_block_unchecked(log_n, j, k, i + 1)
            dest_ranges.append(nxt.node_range)
            reverse_parts.append(kernels.reverse_flags(instances, 1 << k))

        state.machine.kernel(
            "phaseI",
            instances=total_instances,
            body=kernels.phaseI_body,
            inputs={"pq": (pq_in_stream.multi(pq_blocks), 2)},
            gathers={"trees": state.nodes_in},
            iterators={"dest": (IteratorStream.from_ranges(dest_ranges), 2)},
            consts={"reverse": np.concatenate(reverse_parts)},
            outputs={
                "pq_out": (pq_out_stream.multi(pq_blocks), 2),
                "nodes": (state.nodes_out.multi(node_blocks), 2),
            },
            tag=state.tag,
        )
        self._copy_back(state, state.nodes_out.multi(node_blocks), values_only=False)

    def _level_output_copy(self, state: _SortState, j: int) -> None:
        """Direct the merged values back into the tree half (Listing 2)."""
        n = state.n
        machine = state.machine
        if self.gpu_semantics:
            staged = state.nodes_out.sub(n, 2 * n)
            machine.copy_values(
                state.nodes_in.sub(0, n), staged, name="level_output", tag=state.tag
            )
            machine.copy_values(
                staged, state.nodes_in.sub(n, 2 * n), name="copy", tag=state.tag
            )
        else:
            machine.copy_values(
                state.nodes_in.sub(0, n),
                state.nodes_in.sub(n, 2 * n),
                name="level_output",
                tag=state.tag,
            )

    # -- result & validation --------------------------------------------------

    def _result(self, state: _SortState) -> np.ndarray:
        nodes = state.nodes_in.array()
        out = np.empty(state.n, dtype=VALUE_DTYPE)
        out["key"] = nodes["key"][state.n :]
        out["id"] = nodes["id"][state.n :]
        return out

    def _check_level(self, state: _SortState, j: int) -> None:
        """Debug check: tree half holds alternately sorted runs of 2^j."""
        nodes = state.nodes_in.array()
        vals = np.empty(state.n, dtype=VALUE_DTYPE)
        vals["key"] = nodes["key"][state.n :]
        vals["id"] = nodes["id"][state.n :]
        run = 1 << j
        for t in range(state.n // run):
            chunk = vals[t * run : (t + 1) * run]
            expect = reference_sort(chunk)
            if t & 1:
                expect = expect[::-1]
            if not np.array_equal(chunk, expect):
                raise StreamError(
                    f"level {j}: run {t} is not sorted "
                    f"({'descending' if t & 1 else 'ascending'})"
                )
