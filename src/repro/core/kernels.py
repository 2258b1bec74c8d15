"""The GPU-ABiSort kernel bodies.

Each function here is the body of one kernel of the paper, written against
the :class:`~repro.stream.kernel.KernelContext` API and vectorised over all
kernel instances (which is the parallel semantics of one stream operation):

* :func:`phase0_body` -- Listing 3: phase 0 of the adaptive min/max
  determination.  Reads a root node and a spare value per instance,
  conditionally swaps the root/spare values and the root's sons (the
  Section 4.2 simplification), pushes the new (p, q) node pointers and the
  root/spare *values*.
* :func:`phaseI_body` -- Listing 4: any phase ``i > 0``.  Recovers (p, q)
  from the pq-index stream, gathers the two nodes, conditionally swaps
  values and left sons, pushes the new (p, q) pointers, rewrites the
  descended-into child pointers with the *next phase's* output locations
  read from an iterator stream, and pushes the modified nodes.
* :func:`extract_roots_body` -- the Listing-5 initialisation that seeds
  stage 0 with the root nodes and spare values of the input bitonic trees
  (realised "by means of striding", i.e. statically-addressed gathers).
* :func:`local_sortw_body` -- Section 7.1: odd-even transition sort of 8
  value/pointer pairs per kernel instance (8 = the per-kernel output limit
  of 16 x 32 bit divided by the 2 x 32 bit pair size).
* :func:`traverse16_body` -- Section 7.2: in-order traversal collecting the
  16-value bitonic subsequences after the truncated adaptive merge.
* :func:`bitonic_merge16_body` -- Section 7.2: the non-adaptive bitonic
  merge of n' = 16 values; each instance emits one merged half (again the
  output-size limit: "each bitonic sequence of length 16 is processed by two
  kernel instances").
* :func:`init_tree_links_body` -- Listing 2's in-order link initialisation
  of the input tree area.

The per-instance sorting direction arrives as a static constant array
(``reverse``); a real kernel derives it as ``isOdd(instance_index /
numInstancesPerTree)`` from compile-time constants, so no memory traffic is
charged for it.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitonic_tree import inorder_of_complete_tree
from repro.stream.kernel import KernelContext
from repro.stream.stream import NODE_DTYPE, VALUE_DTYPE, values_greater

__all__ = [
    "phase0_body",
    "phaseI_body",
    "extract_roots_body",
    "local_sortw_body",
    "traverse16_body",
    "bitonic_merge16_body",
    "init_tree_links_body",
    "reverse_flags",
]


def reverse_flags(instances: int, instances_per_tree: int) -> np.ndarray:
    """``reverseSortDir = isOdd(instance_index / numInstancesPerTree)``.

    Alternating sorting directions across the trees merged in one level, so
    that the next level again sees pairwise-opposite sorted runs.
    """
    g = np.arange(instances, dtype=np.int64)
    return ((g // instances_per_tree) & 1).astype(bool)


def _values_of(nodes: np.ndarray) -> np.ndarray:
    """Extract the (key, id) payload of a node array as VALUE_DTYPE."""
    out = np.empty(nodes.shape[0], dtype=VALUE_DTYPE)
    out["key"] = nodes["key"]
    out["id"] = nodes["id"]
    return out


def _swap_values(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> None:
    """Exchange key/id payloads of ``a`` and ``b`` where ``mask`` holds."""
    ak = a["key"][mask].copy()
    ai = a["id"][mask].copy()
    a["key"][mask] = b["key"][mask]
    a["id"][mask] = b["id"][mask]
    b["key"][mask] = ak
    b["id"][mask] = ai


def phase0_body(ctx: KernelContext) -> None:
    """Listing 3 (phase 0 kernel), simplified variant of Section 4.2."""
    reverse = ctx.const("reverse")
    root = ctx.read("roots").copy()  # NODE per instance
    spare = ctx.read("spares").copy()  # VALUE per instance

    cond = values_greater(root, spare) != reverse
    _swap_values(root, spare, cond)
    # The Section-4.2 simplification: also exchange the two sons of root.
    left = root["left"][cond].copy()
    root["left"][cond] = root["right"][cond]
    root["right"][cond] = left

    ctx.push("pq", root["left"])  # new p index
    ctx.push("pq", root["right"])  # new q index
    ctx.push("values", _values_of(root))
    ctx.push("values", spare)


def phaseI_body(ctx: KernelContext) -> None:
    """Listing 4 (phase ``i > 0`` kernel)."""
    reverse = ctx.const("reverse")
    pidx = ctx.read("pq")
    qidx = ctx.read("pq")
    p = ctx.gather("trees", pidx).copy()
    q = ctx.gather("trees", qidx).copy()

    cond = values_greater(p, q) != reverse
    _swap_values(p, q, cond)
    pl = p["left"][cond].copy()
    p["left"][cond] = q["left"][cond]
    q["left"][cond] = pl

    # New p/q pointers: the right sons on a swap, the left sons otherwise.
    ctx.push("pq_out", np.where(cond, p["right"], p["left"]))
    ctx.push("pq_out", np.where(cond, q["right"], q["left"]))

    # Update the descended-into child pointers to the locations the next
    # phase will write (the iterator stream enumerates them in advance).
    d_p = ctx.read_iter("dest")
    d_q = ctx.read_iter("dest")
    p["right"] = np.where(cond, d_p, p["right"])
    p["left"] = np.where(cond, p["left"], d_p)
    q["right"] = np.where(cond, d_q, q["right"])
    q["left"] = np.where(cond, q["left"], d_q)

    ctx.push("nodes", p)
    ctx.push("nodes", q)


def extract_roots_body(ctx: KernelContext) -> None:
    """Seed stage 0: gather each tree's root node and spare value.

    Listing 5 expresses this as a strided assignment; the kernel equivalent
    (also described there: "each kernel instance would have to skip
    2^(j-1) - 1 stream nodes, read the root node, ...") gathers at the
    statically-known root/spare slots.
    """
    root_slots = ctx.const("root_slots")
    spare_slots = ctx.const("spare_slots")
    roots = ctx.gather("trees", root_slots)
    spares = ctx.gather("trees", spare_slots)
    ctx.push("roots", roots)
    ctx.push("spares", _values_of(spares))


def _compare_exchange(
    block: np.ndarray, a: int, b: int, reverse: np.ndarray
) -> None:
    """In-place compare-exchange of columns ``a`` and ``b`` of ``block``.

    ``block`` has shape (instances, width); after the call column ``a``
    holds the minima (maxima when ``reverse``).
    """
    ca = block[:, a]
    cb = block[:, b]
    cond = values_greater(ca, cb) != reverse
    _swap_values(ca, cb, cond)


def local_sortw_body(ctx: KernelContext, width: int = 8) -> None:
    """Section 7.1: odd-even transition sort of ``width`` pairs per instance.

    "The comparison order of odd-even transition sort, that makes it also
    applicable as sorting network, allows for better SIMD optimizations" --
    ``width`` passes of alternating odd/even compare-exchanges, entirely
    data-independent.
    """
    reverse = ctx.const("reverse")
    cols = [ctx.read("values") for _ in range(width)]
    block = np.empty((ctx.instances, width), dtype=VALUE_DTYPE)
    for c in range(width):
        block[:, c] = cols[c]
    for pass_ in range(width):
        for c in range(pass_ % 2, width - 1, 2):
            _compare_exchange(block, c, c + 1, reverse)
    for c in range(width):
        ctx.push("sorted", block[:, c].copy())


def traverse16_body(ctx: KernelContext) -> None:
    """Section 7.2: collect 16-value bitonic subsequences by tree traversal.

    Each instance owns one 15-node subtree (rooted at a node written by
    phase 1 of the last executed adaptive stage) plus one trailing value
    (from the phase-0 output pair).  It gathers the subtree level by level
    following child pointers, arranges the 15 values in in-order sequence
    order, and appends the trailing value -- producing the bitonic
    16-sequence that the optimized bitonic merge consumes.
    """
    trailing = ctx.read("trailing")  # VALUE per instance
    root = ctx.read("roots")  # NODE per instance (subtree root, level 0 of 4)
    n_i = ctx.instances

    # Follow child pointers level by level: 1 + 2 + 4 + 8 = 15 nodes.  The
    # depth-3 leaves' own links are garbage by design and never read.
    level_nodes: list[np.ndarray] = [root.reshape(n_i, 1)]
    for _depth in (1, 2, 3):
        prev = level_nodes[-1]
        idx = np.empty((n_i, prev.shape[1] * 2), dtype=np.int64)
        idx[:, 0::2] = prev["left"]
        idx[:, 1::2] = prev["right"]
        level_nodes.append(ctx.gather("trees", idx))

    seq = np.empty((n_i, 16), dtype=VALUE_DTYPE)
    slots = inorder_of_complete_tree(4)  # level-order rank -> in-order slot
    rank = 0
    for nodes in level_nodes:
        for col in range(nodes.shape[1]):
            s = int(slots[rank])
            seq[:, s]["key"] = nodes[:, col]["key"]
            seq[:, s]["id"] = nodes[:, col]["id"]
            rank += 1
    seq[:, 15] = trailing
    for c in range(16):
        ctx.push("seq", seq[:, c].copy())


def bitonic_merge16_body(ctx: KernelContext) -> None:
    """Section 7.2: non-adaptive bitonic merge of n' = 16 values.

    Two instances cooperate on each bitonic 16-sequence: both gather the
    sequence (static addresses from the ``base`` constant), instance parity
    selects the lower (min) or upper (max) half, and a full bitonic merge of
    8 (strides 4, 2, 1) finishes the half locally.  Each instance pushes its
    8 sorted values -- respecting the 16 x 32-bit per-kernel output limit.
    """
    reverse = ctx.const("reverse")
    base = ctx.const("base")  # first element of the instance's 16-sequence
    upper = ctx.const("upper")  # bool: this instance emits the max half
    n_i = ctx.instances

    idx = base[:, None] + np.arange(16, dtype=np.int64)[None, :]
    raw = ctx.gather("seq", idx)
    block = np.empty((n_i, 16), dtype=VALUE_DTYPE)
    block["key"] = raw["key"]
    block["id"] = raw["id"]

    # Stride-8 stage: select this instance's half.  pick_hi is the XOR of
    # (lo > hi), the sorting direction, and which half this instance emits.
    lo = block[:, :8]
    hi = block[:, 8:]
    cond = values_greater(lo, hi)  # elementwise (n_i, 8)
    pick_hi = (cond != reverse[:, None]) != upper[:, None]
    half = np.empty((n_i, 8), dtype=VALUE_DTYPE)
    half["key"] = np.where(pick_hi, hi["key"], lo["key"])
    half["id"] = np.where(pick_hi, hi["id"], lo["id"])

    # Finish with a bitonic merge of 8: strides 4, 2, 1.
    for stride in (4, 2, 1):
        a = half.reshape(n_i, -1, 2, stride)
        x = a[:, :, 0, :]
        y = a[:, :, 1, :]
        cond = values_greater(x, y) != reverse[:, None, None]
        xk = np.where(cond, y["key"], x["key"])
        xi = np.where(cond, y["id"], x["id"])
        yk = np.where(cond, x["key"], y["key"])
        yi = np.where(cond, x["id"], y["id"])
        x["key"], x["id"] = xk, xi
        y["key"], y["id"] = yk, yi
        half = a.reshape(n_i, 8)

    for c in range(8):
        ctx.push("merged", half[:, c].copy())


def init_tree_links_body(ctx: KernelContext) -> None:
    """Listing 2: write the in-order child links of the input tree area.

    One instance per node slot; the slot index arrives via the iterator
    stream and the links follow from the bit formula (Listing 2)::

        left  = i - ((i + 1) & ~i) / 2
        right = i + ((i + 1) & ~i) / 2
    """
    slot = ctx.read_iter("slots")
    values = ctx.read("values")  # VALUE per instance
    half = ((slot + 1) & ~slot) // 2
    nodes = np.zeros(ctx.instances, dtype=NODE_DTYPE)
    nodes["key"] = values["key"]
    nodes["id"] = values["id"]
    nodes["left"] = slot - half
    nodes["right"] = slot + half
    ctx.push("nodes", nodes)
