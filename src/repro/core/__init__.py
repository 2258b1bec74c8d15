"""The paper's primary contribution: adaptive bitonic sorting.

Layering (bottom to top):

* :mod:`repro.core.values` -- the value/pointer pair element type and its
  total order (paper Listing 1 / Section 8).
* :mod:`repro.core.bitonic_tree` -- bitonic trees stored in in-order array
  layout with explicit child indexes (Sections 4.1 and 5.2, Listing 2).
* :mod:`repro.core.sequential` -- the *reference* implementation: classic
  (Section 4.1) and simplified (Section 4.2) adaptive bitonic merge and the
  sequential adaptive bitonic sort, with operation counters.
* :mod:`repro.core.layout` -- the output-stream memory layout: Table 1,
  the overlapped step schedule of Section 5.4, and the layout tables shown
  in Figures 4-7.
* :mod:`repro.core.kernels` -- the stream kernels (Listings 3 and 4 plus the
  Section-7 kernels), vectorised over kernel instances.
* :mod:`repro.core.abisort` -- the GPU-ABiSort stream program: the faithful
  O(log^3 n)-stream-operation version (Appendix A) and the overlapped
  O(log^2 n) version (Section 5.4).
* :mod:`repro.core.optimized` -- the Section 7 fast path: local sort of 8,
  truncated adaptive merge, traversal kernel, and bitonic merge of 16.
* :mod:`repro.core.api` -- variant selection (:class:`ABiSortConfig`) and
  the sorter factory the engine adapters build on.
"""

from repro.core.values import as_key_id, keys_of, ids_of, total_order_argsort
from repro.core.bitonic_tree import (
    build_inorder_links,
    inorder_positions_by_level,
    levels_of_inorder_positions,
    validate_inorder_tree,
)
from repro.core.sequential import (
    SequentialCounters,
    adaptive_bitonic_merge_sequence,
    adaptive_bitonic_sort_sequence,
)
from repro.core.abisort import GPUABiSorter
from repro.core.api import ABiSortConfig

__all__ = [
    "as_key_id",
    "keys_of",
    "ids_of",
    "total_order_argsort",
    "build_inorder_links",
    "inorder_positions_by_level",
    "levels_of_inorder_positions",
    "validate_inorder_tree",
    "SequentialCounters",
    "adaptive_bitonic_merge_sequence",
    "adaptive_bitonic_sort_sequence",
    "GPUABiSorter",
    "ABiSortConfig",
]
