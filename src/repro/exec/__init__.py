"""Execution tiers: the exact reference hot loops vs numpy fast paths.

The modeled costs in this repository are *counted* -- comparisons,
seeks, bytes, modeled milliseconds -- but the code doing the counting
has wall-clock costs of its own, and the hottest serving paths (the
k-way loser-tree merge behind :func:`repro.cluster.sharded.merge_sorted_runs`,
reused by every :class:`repro.store.SortedStore` query, and the
out-of-core merge/run-formation pipeline of
:class:`repro.hybrid.external.ExternalSorter`) historically emitted one
record per Python-level call.  This package makes the execution strategy
a first-class **tier**, mirroring PPT-GPU's hybrid
fast-analytical / cycle-accurate split:

``reference``
    Today's per-element interpreters, unchanged: every comparison is an
    actual :class:`~repro.hybrid.external.LoserTree` match, every stream
    phase an actual machine pass.  The tier for tracing and figures.

``vectorized``
    Whole-array numpy execution of the same algorithms: k runs merge as
    one sort (numpy's default kind, x86-simd-sort on AVX-512 CPUs) of
    their concatenated composite keys, which need not be sorted runs at
    all (the sharded sorter passes its raw shards), and whole
    stream-kernel passes -- the ABiSort bitonic-tree levels, network
    columns, and layout remaps -- execute as batched array ops through
    the *stream tier* (:mod:`repro.exec.stream_tier`): one composite
    sort forces the output, and the op log, counters and modeled
    GPU time come from a process-wide memo filled by running the
    unchanged drivers once per program and padded length on a counting
    machine that reproduces the op log closed-form.  The tier for
    serving.

**The contract both tiers honor:** output is bit-identical and modeled
telemetry is identical.  Comparison counts come from the closed form
:func:`repro.analysis.complexity.loser_tree_merge_comparisons` (which
equals the reference tree's counter exactly -- the tree plays ``K-1``
build matches plus ``log2 K`` per emitted element, independent of the
data), and the disk model is charged with the reference's exact access
pattern.  Both rest on the input contract -- no NaN key, unique ids --
that :meth:`~repro.engines.base.SortRequest.to_values` checks once per
request.

The tier is a property of what the caller asks for, not a mode:
``reference`` when the request sets ``trace=True`` (op-log and figure
consumers need the interpreter's own trace), ``vectorized`` otherwise
(:func:`resolve_request_tier`).  The planner records the pick on the plan
(``SortPlan.exec_tier``).  Below the engines the switch stays the
request's own ``trace`` flag:
:class:`~repro.cluster.sharded.ShardedSorter`,
:class:`~repro.hybrid.external.ExternalSorter` and
:func:`~repro.cluster.sharded.merge_sorted_runs` take ``trace: bool =
False``, and every stream sort goes through the one entry point
:func:`repro.exec.stream_tier.sort_on_stream`: untraced, the memo serves
the unpadded input and never declines (an unprofiled kernel raises
:class:`~repro.errors.KernelError`); only the interpreter pads and
strips.  GPU-ABiSort and the networks both take ``(values, machine)``.
See ``docs/execution.md``.
"""

from __future__ import annotations

from repro.exec.backend import ReferenceBackend
from repro.exec.vectorized import VectorizedBackend

__all__ = [
    "ReferenceBackend",
    "VectorizedBackend",
    "resolve_request_tier",
]


def resolve_request_tier(request) -> str:
    """The tier a sort request runs under.

    Traced requests take the reference tier, so op-log consumers see the
    interpreter's own trace, gather traces included; everything else takes
    the vectorized tier.  ``request`` is duck-typed on ``trace``.
    """
    return "reference" if request.trace else "vectorized"

