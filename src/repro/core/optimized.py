"""The Section-7 optimized GPU-ABiSort path.

Two optimizations combine with the asymptotically optimal core:

**7.1 -- local sort replaces the first recursion levels.**  A kernel
instance can output at most 16 x 32 bit, i.e. 8 value/pointer pairs, so the
sort starts with one stream operation that sorts blocks of 8 pairs locally
with an odd-even transition sort (direction alternating per block), and one
more operation that converts the sorted runs pairwise into bitonic trees of
16 nodes.  Recursion levels ``j = 1..3`` are thereby replaced and
GPU-ABiSort proper starts at ``j = 4``.

**7.2 -- a fixed bitonic merge of n' = 16 replaces the last stages of every
merge.**  Bitonic merging of 16 values is a subroutine of bitonic merging of
``n > 16`` values, so the last 4 stages of the adaptive bitonic merge are
cut (the overlapped schedule shrinks from ``2j - 1`` to ``2j - 5`` steps,
Figure 7) and replaced by

1. one *traversal* stream operation that collects the 16-value bitonic
   subsequences by in-order traversal, starting simultaneously from all
   output node pairs of phase 0 of the last executed stage, and
2. one *bitonic-merge-16* stream operation (two kernel instances per
   sequence -- one emits the merged lower half, one the upper half), whose
   output, written back over the tree half of the node stream, is already
   "converted back to bitonic trees" because the in-order child links there
   are static.

For ``j = 4`` the adaptive part is empty and the freshly built 16-node trees
feed the bitonic-merge-16 directly.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core import kernels, layout
from repro.core.abisort import GPUABiSorter, _SortState
from repro.stream.context import StreamMachine
from repro.stream.iterator import IteratorStream
from repro.stream.stream import VALUE_DTYPE, Stream

__all__ = ["OptimizedGPUABiSorter", "LOCAL_SORT_WIDTH", "MERGE_CUT"]

#: Pairs sorted locally per kernel instance (the 16 x 32-bit output limit).
LOCAL_SORT_WIDTH = 8

#: Stages replaced by the fixed merge: log2(16) = 4.
MERGE_CUT = 4


class OptimizedGPUABiSorter(GPUABiSorter):
    """GPU-ABiSort with the Section-7 optimizations enabled.

    Inherits all stream-machine handling and the adaptive kernels from
    :class:`GPUABiSorter`; only the level plan differs.  The
    ``schedule="overlapped"`` mode matches the paper's optimized
    implementation; ``"sequential"`` is also supported (the truncation is
    schedule-independent).
    """

    def sort(
        self, values: np.ndarray, machine: StreamMachine | None = None
    ) -> np.ndarray:
        """Sort with local-sort-8 + truncated merges + fixed merge-16.

        ``machine`` as in :meth:`GPUABiSorter.sort`.
        """
        state = self._setup(values, machine)
        self.last_machine = state.machine
        n, log_n = state.n, state.log_n

        sorted8 = self._local_sort(state, values)
        if log_n <= 3:
            # n <= 8: the local sort already produced the full result.
            return sorted8.array().copy()

        # One stream operation converts the sorted-8 runs pairwise to
        # bitonic trees of 16 nodes (Section 7.1): values + in-order links.
        state.tag = "build_trees16"
        state.machine.kernel(
            "init_tree_links",
            instances=n,
            body=kernels.init_tree_links_body,
            inputs={"values": (sorted8.whole(), 1)},
            iterators={"slots": (IteratorStream(n, 2 * n), 1)},
            outputs={"nodes": (state.nodes_in.sub(n, 2 * n), 1)},
            tag=state.tag,
        )

        seq: Stream | None = None
        if log_n >= 5:
            seq = state.machine.alloc("seq16", VALUE_DTYPE, n)

        # Level 4: the trees of 16 nodes are merged by the fixed bitonic
        # merge alone (all 4 stages fall to the cut).
        state.level = 4
        state.tag = "level4"
        self._merge16_op(state, j=4, seq=None)
        if self.validate_levels:
            self._check_level(state, 4)

        for j in range(5, log_n + 1):
            state.level = j
            state.tag = f"level{j}"
            self._extract_roots(state, j)
            if self.schedule == "sequential":
                # Same phases as the truncated overlapped schedule, but one
                # (stage, phase) per stream operation in stage order --
                # consecutive phases of a stage must stay adjacent so the pq
                # ping-pong parity lines up.
                steps = [
                    [(k, i)]
                    for k in range(j - MERGE_CUT)
                    for i in range(layout.num_phases(j, k))
                ]
            else:
                steps = layout.truncated_overlapped_schedule(j, MERGE_CUT)
            self._run_steps(state, j, steps)
            self._traverse16_op(state, j, seq)
            self._merge16_op(state, j, seq)
            if self.validate_levels:
                self._check_level(state, j)
        return self._result(state)

    # -- Section 7.1: local sort ---------------------------------------------

    def _local_sort(self, state: _SortState, values: np.ndarray) -> Stream:
        """Sort blocks of 8 pairs with odd-even transition sort (1 op)."""
        n = state.n
        machine = state.machine
        width = min(LOCAL_SORT_WIDTH, n)
        blocks = n // width
        source = machine.wrap("source", values.copy())
        sorted8 = machine.alloc("sorted8", VALUE_DTYPE, n)
        machine.kernel(
            "local_sort8",
            instances=blocks,
            body=partial(kernels.local_sortw_body, width=width),
            inputs={"values": (source.whole(), width)},
            consts={"reverse": kernels.reverse_flags(blocks, 1)},
            outputs={"sorted": (sorted8.whole(), width)},
            tag="local_sort",
        )
        return sorted8

    # -- Section 7.2: traversal + fixed merge ----------------------------------

    def _traverse16_op(self, state: _SortState, j: int, seq: Stream) -> None:
        """Collect the 16-value bitonic subsequences after the truncated merge."""
        log_n = state.log_n
        pairs_last = layout.stage_instances(log_n, j, j - 1 - MERGE_CUT)
        instances = 2 * pairs_last  # one per 16-sequence == n / 16
        trailing_in = state.nodes_in.sub(0, 2 * pairs_last)
        roots_in = state.nodes_in.sub(2 * pairs_last, 4 * pairs_last)
        state.machine.kernel(
            "traverse16",
            instances=instances,
            body=kernels.traverse16_body,
            inputs={"roots": (roots_in, 1)},
            value_only_inputs={"trailing": (trailing_in, 1)},
            gathers={"trees": state.nodes_in},
            outputs={"seq": (seq.whole(), 16)},
            tag=state.tag,
        )

    def _merge16_op(self, state: _SortState, j: int, seq: Stream | None) -> None:
        """Fixed bitonic merge of 16; output becomes the level-j result.

        ``seq=None`` (level 4) gathers the sequences straight from the tree
        half of the node stream, whose in-order storage makes each tree a
        contiguous 16-value bitonic sequence.
        """
        n = state.n
        instances = n // 8
        g = np.arange(instances, dtype=np.int64)
        block = g >> 1
        tree = block >> (j - 4)
        base_offset = n if seq is None else 0
        consts = {
            "reverse": (tree & 1).astype(bool),
            "base": base_offset + 16 * block,
            "upper": (g & 1).astype(bool),
        }
        gather_stream = state.nodes_in if seq is None else seq
        out = state.nodes_out.sub(n, 2 * n)
        state.machine.kernel(
            "bitonic_merge16",
            instances=instances,
            body=kernels.bitonic_merge16_body,
            gathers={"seq": gather_stream},
            consts=consts,
            value_only_outputs={"merged": (out, 8)},
            tag=state.tag,
        )
        if self.gpu_semantics:
            state.machine.copy_values(
                out, state.nodes_in.sub(n, 2 * n), name="copy", tag=state.tag
            )
