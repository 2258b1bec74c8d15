"""The execution-backend interface and the exact ``reference`` tier.

An :class:`ExecutionBackend` is a strategy for running the repository's
merge hot loop; the algorithm (and therefore the output *and* the
counted/modeled telemetry) is fixed, only the execution substrate
changes.  :class:`ReferenceBackend` is the per-element loser-tree merge
that every layer used before the tier split existed -- it *is* the
semantics the vectorized tier must reproduce bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.hybrid.external import LoserTree
from repro.stream.stream import VALUE_DTYPE

__all__ = ["ExecutionBackend", "ReferenceBackend"]


class ExecutionBackend(ABC):
    """One execution strategy for the merge hot loop.

    Implementations must agree bit-for-bit on output and exactly on the
    comparison count: callers price CPU merge time as
    ``comparisons * cpu_op_ns`` and benchmark gates assert the tiers'
    telemetry is indistinguishable.
    """

    #: The tier name (`"reference"` / `"vectorized"`); requests with
    #: ``trace=True`` run on the reference tier, all others vectorized.
    name: str = ""

    @abstractmethod
    def merge_runs(self, runs: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """K-way merge of individually sorted ``VALUE_DTYPE`` runs.

        Returns ``(merged, comparisons)`` where ``merged`` is ascending
        under the (key, id) total order and ``comparisons`` is the cost
        a :class:`~repro.hybrid.external.LoserTree` would count for the
        same merge (``K-1`` build matches plus ``log2 K`` per element,
        ``K`` the tree's power-of-two width over the non-empty runs).
        Empty runs are skipped; zero or one non-empty run costs zero
        comparisons.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExecutionBackend {self.name!r}>"


class ReferenceBackend(ExecutionBackend):
    """The exact tier: one :class:`LoserTree` match per comparison.

    This is the merge loop :func:`repro.cluster.sharded.merge_sorted_runs`
    always ran; it moved here verbatim when tier selection landed.  Use
    it when the *process* matters (comparison traces, figures, stepping
    through the tournament) -- the vectorized tier reports the same
    numbers but does not physically play the matches.
    """

    name = "reference"

    def merge_runs(self, runs: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """Loser-tree k-way merge (see :class:`ExecutionBackend`)."""
        live_runs = [r for r in runs if r.shape[0]]
        total = sum(r.shape[0] for r in live_runs)
        out = np.empty(total, dtype=VALUE_DTYPE)
        if not live_runs:
            return out, 0
        if len(live_runs) == 1:
            out[:] = live_runs[0]
            return out, 0

        k = len(live_runs)
        tree = LoserTree(k)
        # Leaves order by (key, id): the same global total order the runs
        # are sorted by, so duplicate keys merge into exactly the
        # single-sequence output.  The winning run is the winner leaf index.
        entries: list[tuple[float, int] | None] = [
            (float(r["key"][0]), int(r["id"][0])) for r in live_runs
        ]
        tree.build(entries + [None] * (tree.k - k))
        cursors = [1] * k
        for i in range(total):
            key, rec_id = tree.winner_entry()
            run_idx = tree.winner
            out[i]["key"] = np.float32(key)
            out[i]["id"] = np.uint32(rec_id)
            run = live_runs[run_idx]
            c = cursors[run_idx]
            if c < run.shape[0]:
                cursors[run_idx] = c + 1
                tree.replace_winner(
                    float(run["key"][c]), int(run["id"][c]), live=True
                )
            else:
                tree.replace_winner(np.inf, 0, live=False)
        return out, tree.comparisons
