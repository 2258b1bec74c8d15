"""The exact ``reference`` tier: the per-element loser-tree merge.

:class:`ReferenceBackend` is the per-element loser-tree merge that every
layer used before the tier split existed -- it *is* the semantics the
vectorized tier (:class:`~repro.exec.vectorized.VectorizedBackend`) must
reproduce bit for bit.  Both backends run the same merge contract, the
one :func:`repro.cluster.sharded.merge_sorted_runs` states.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.external import LoserTree
from repro.stream.stream import VALUE_DTYPE

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """The exact tier: one :class:`LoserTree` match per comparison.

    This is the merge loop :func:`repro.cluster.sharded.merge_sorted_runs`
    always ran; it moved here verbatim when tier selection landed.  Use
    it when the *process* matters (comparison traces, figures, stepping
    through the tournament) -- the vectorized tier reports the same
    numbers but does not physically play the matches.
    """

    def merge_runs(self, runs: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """Loser-tree k-way merge of sorted runs: ``(merged, comparisons)``
        (see :func:`~repro.cluster.sharded.merge_sorted_runs`)."""
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
