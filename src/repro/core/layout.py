"""The output-stream memory layout and stage/phase schedules.

This module is the combinatorial heart of the reproduction: it encodes

* **Table 1** -- the substream (memory block) to which the modified node
  pairs of each phase of each merge stage are written
  (:func:`phase_block`), chosen so that "only those locations are
  overwritten that do not contain valid nodes anymore" (Section 5.3);
* the **sequential phase schedule** (Appendix A: all phases of all stages
  executed one after the other, O(log^3 n) stream operations for the whole
  sort);
* the **overlapped step schedule** of Section 5.4 (phase ``i`` of stage
  ``k`` runs in step ``2k + i``; a new stage starts every other step), which
  executes a whole recursion level in ``2j - 1`` steps and the whole sort in
  O(log^2 n) stream operations;
* the **truncated schedule** used by the Section 7.2 optimization (the last
  four stages of every merge are replaced by the non-adaptive bitonic merge
  of 16, leaving ``2j - 5`` steps, Figure 7);
* the layout *tables* of Figures 4, 5, 6 and 7: for every step/phase, the
  tree level of the node pair at every stream memory location, regenerated
  exactly as printed in the paper (see :mod:`repro.analysis.figures`).

Units: all blocks are expressed in **node pairs**, as in Table 1; helper
accessors convert to node element ranges (x2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LayoutError
from repro.core.bitonic_tree import is_power_of_two, levels_of_inorder_positions

__all__ = [
    "PhaseBlock",
    "num_trees",
    "num_phases",
    "stage_instances",
    "phase_block",
    "sequential_schedule",
    "overlapped_schedule",
    "truncated_overlapped_schedule",
    "total_sequential_phases",
    "overlapped_step_count",
    "truncated_step_count",
    "PairLabel",
    "phase_pair_labels",
    "LayoutTracker",
]


@dataclass(frozen=True)
class PhaseBlock:
    """One Table-1 entry: the output block of phase ``phase`` of ``stage``."""

    stage: int
    phase: int
    start_pair: int
    length_pairs: int

    @property
    def stop_pair(self) -> int:
        """Exclusive end of the block, in node pairs."""
        return self.start_pair + self.length_pairs

    @property
    def node_range(self) -> tuple[int, int]:
        """The block in node-element units."""
        return 2 * self.start_pair, 2 * self.stop_pair


def num_trees(log_n: int, j: int) -> int:
    """Bitonic trees merged simultaneously at recursion level ``j``."""
    if not 1 <= j <= log_n:
        raise LayoutError(f"recursion level j={j} outside 1..{log_n}")
    return 1 << (log_n - j)


def num_phases(j: int, stage: int) -> int:
    """Phases of merge stage ``stage`` at recursion level ``j`` (= j - k)."""
    if not 0 <= stage < j:
        raise LayoutError(f"stage {stage} outside 0..{j - 1}")
    return j - stage


def stage_instances(log_n: int, j: int, stage: int) -> int:
    """Kernel instances (= node pairs written) per phase of a stage.

    Section 5.1: "2^(log n - j) * 2^k instances of the adaptive min/max
    determination algorithm can be executed in parallel in that stage".
    """
    if not 0 <= stage < j:
        raise LayoutError(f"stage {stage} outside 0..{j - 1}")
    return num_trees(log_n, j) << stage


def phase_block(log_n: int, j: int, stage: int, phase: int) -> PhaseBlock:
    """Table 1: the output substream of ``phase`` of ``stage`` (node pairs).

    ======  ==============================  ==============================
    phase   start of substream              end of substream
    ======  ==============================  ==============================
    0       0                               2^k * 2^(log n - j)
    1       2^k * 2^(log n - j)             2^(k+1) * 2^(log n - j)
    i > 1   (2^(k+i-1) + 2^k) 2^(log n-j)   (2^(k+i-1) + 2^(k+1)) 2^(log n-j)
    ======  ==============================  ==============================
    """
    if not 0 <= phase < num_phases(j, stage):
        raise LayoutError(
            f"phase {phase} outside 0..{num_phases(j, stage) - 1} "
            f"(stage {stage}, level {j})"
        )
    return _table1_block(log_n, j, stage, phase)


def phase_block_unchecked(log_n: int, j: int, stage: int, phase: int) -> PhaseBlock:
    """Table-1 formula without the phase-range check.

    The phase-``i`` kernel updates child pointers with the output locations
    of phase ``i + 1`` *even in the last phase of a stage*, where that next
    phase never executes: the nodes concerned are leaves, whose child
    pointers are never followed (Listing 4 has no special case).  The dest
    iterator for that final phase therefore needs the formula one step past
    the valid range.
    """
    return _table1_block(log_n, j, stage, phase)


def _table1_block(log_n: int, j: int, stage: int, phase: int) -> PhaseBlock:
    """The Table-1 formula, for any phase (the two public entry points
    stay separate so each can be patched on its own)."""
    scale = num_trees(log_n, j)
    length = (1 << stage) * scale
    if phase == 0:
        start = 0
    elif phase == 1:
        start = length
    else:
        start = ((1 << (stage + phase - 1)) + (1 << stage)) * scale
    return PhaseBlock(stage, phase, start, length)


def sequential_schedule(j: int) -> list[list[tuple[int, int]]]:
    """The Appendix-A schedule: one (stage, phase) per step, in stage order."""
    steps: list[list[tuple[int, int]]] = []
    for k in range(j):
        for i in range(num_phases(j, k)):
            steps.append([(k, i)])
    return steps


def overlapped_schedule(j: int) -> list[list[tuple[int, int]]]:
    """The Section-5.4 schedule: ``2j - 1`` steps, stages started every
    other step ("phase i of a stage k can be executed immediately after
    phase i + 1 of stage k - 1").

    Step ``s`` runs phase ``s - 2k`` of every stage ``k`` with
    ``max(0, s - j + 1) <= k <= s // 2``.
    """
    if j < 1:
        raise LayoutError(f"recursion level must be >= 1, got {j}")
    steps = []
    for s in range(2 * j - 1):
        active = [
            (k, s - 2 * k) for k in range(max(0, s - j + 1), s // 2 + 1)
        ]
        steps.append(active)
    return steps


def truncated_overlapped_schedule(j: int, cut: int = 4) -> list[list[tuple[int, int]]]:
    """Section 7.2: the overlapped schedule with the last ``cut`` stages
    removed (they are replaced by the non-adaptive bitonic merge of
    ``2**cut`` values), leaving stages ``0 .. j-1-cut`` and
    ``2j - 2*cut + 3`` steps -- for the paper's ``cut = 4``: ``2j - 5``
    steps, "and in the last 3 remaining steps only a reduced number of node
    pairs has to be processed" (Figure 7).
    """
    if j <= cut:
        raise LayoutError(
            f"truncated schedule needs j > cut (got j={j}, cut={cut}); "
            f"levels j <= cut are handled entirely by the optimized merge"
        )
    last_stage = j - 1 - cut
    steps = []
    for s in range(2 * last_stage + num_phases(j, last_stage)):
        active = [
            (k, s - 2 * k)
            for k in range(max(0, s - j + 1), min(s // 2, last_stage) + 1)
        ]
        if active:
            steps.append(active)
    return steps


def total_sequential_phases(j: int) -> int:
    """Phases in one recursion level, sequential schedule: (j^2 + j) / 2."""
    return (j * j + j) // 2


def overlapped_step_count(j: int) -> int:
    """Steps in one recursion level, overlapped schedule: 2j - 1."""
    return 2 * j - 1


def truncated_step_count(j: int, cut: int = 4) -> int:
    """Steps of the truncated adaptive merge: 2j - 2*cut + 3 (= 2j - 5)."""
    return 2 * j - 2 * cut + 3


# -- layout tables (Figures 4-7) ---------------------------------------------

#: A pair label: (level of first node, level of second node or "s", tree id).
PairLabel = tuple[object, object, int]


def phase_pair_labels(log_n: int, j: int, stage: int, phase: int) -> list[PairLabel]:
    """Tree-level labels of the node pairs a phase writes, in write order.

    Phase 0 of stage ``k`` writes pairs ``(root value, spare value)``: the
    root is a level-``k`` node and the spare values follow the in-order
    level sequence of the ``k`` upper tree levels ("the order of the nodes
    written in phase 0 of each stage k corresponds to an in-order traversal
    of the k upper levels", Section 5.3) with the true spare, printed ``s``,
    last.  Phase ``i >= 1`` writes pairs of two level-``k+i`` nodes.
    """
    trees = num_trees(log_n, j)
    k = stage
    per_tree = 1 << k
    labels: list[PairLabel] = []
    if phase == 0:
        if k == 0:
            spare_levels: list[object] = ["s"]
        else:
            seq = levels_of_inorder_positions(k)
            spare_levels = ["s" if lv < 0 else int(lv) for lv in seq]
        for tree in range(trees):
            for t in range(per_tree):
                labels.append((k, spare_levels[t], tree))
    else:
        lv = k + phase
        for tree in range(trees):
            for _t in range(per_tree):
                labels.append((lv, lv, tree))
    return labels


class LayoutTracker:
    """Replay a schedule and record the layout table rows of Figures 4-7.

    The tracker maintains the n/2-pair label array, applies each step's
    blocks, and snapshots a row per step.  ``rows`` then holds, for every
    step, the (possibly sparse) list of pair labels by memory location;
    :mod:`repro.analysis.figures` renders them in the paper's compact form.
    """

    def __init__(self, log_n: int, j: int):
        if not is_power_of_two(1 << log_n):
            raise LayoutError("log_n must be a nonnegative integer")
        self.log_n = log_n
        self.j = j
        self.pairs = num_trees(log_n, j) * (1 << (j - 1))
        self.labels: list[PairLabel | None] = [None] * self.pairs
        #: One entry per step: (step description, snapshot, newly written set)
        self.rows: list[tuple[list[tuple[int, int]], list[PairLabel | None], set[int]]] = []

    def run(self, schedule: list[list[tuple[int, int]]]) -> "LayoutTracker":
        """Replay ``schedule``, recording a labelled snapshot per step."""
        for active in schedule:
            written: set[int] = set()
            for stage, phase in active:
                block = phase_block(self.log_n, self.j, stage, phase)
                labels = phase_pair_labels(self.log_n, self.j, stage, phase)
                if len(labels) != block.length_pairs:
                    raise LayoutError(
                        f"label count {len(labels)} != block length "
                        f"{block.length_pairs} (stage {stage} phase {phase})"
                    )
                for off, lab in enumerate(labels):
                    loc = block.start_pair + off
                    self.labels[loc] = lab
                    written.add(loc)
            self.rows.append((list(active), list(self.labels), written))
        return self


def validate_no_overlap_within_step(
    log_n: int, j: int, schedule: list[list[tuple[int, int]]]
) -> None:
    """Assert that blocks written in the same step never overlap.

    Section 5.4: "the memory blocks belonging to a single step of the
    algorithm do not overlap" -- a correctness precondition for executing
    them as one stream operation.
    """
    for step, active in enumerate(schedule):
        spans: list[tuple[int, int]] = []
        for stage, phase in active:
            block = phase_block(log_n, j, stage, phase)
            spans.append((block.start_pair, block.stop_pair))
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise LayoutError(
                    f"step {step}: blocks [{s0},{e0}) and [{s1},{e1}) overlap"
                )
