"""The ``vectorized`` stream tier: whole-pass execution of stream programs.

This module extends the tier split of :mod:`repro.exec` into
:mod:`repro.stream`, whose reference interpreter evaluates every kernel
pass with per-op Python dispatch.  The fast path rests on two facts the
test suite pins down:

1.  **The drivers are data-independent.**  The GPU-ABiSort drivers
    (:mod:`repro.core.abisort` / :mod:`repro.core.optimized`) and the
    network runner (:func:`repro.baselines.bitonic_network.run_network_stream`)
    never branch on stream *contents* -- the op sequence, every launch's
    port declarations, and all substream block lists are a pure function of
    the input length and the configured schedule.  So the whole op log can
    be produced without executing a single kernel body: the unchanged
    driver runs against a :class:`CountingStreamMachine`, which performs
    the full validation sequence of :class:`~repro.stream.context.StreamMachine`
    but replaces execution with closed-form traffic accounting.

2.  **The output is forced.**  With unique (key, id) pairs the total order
    is strict, so the sorted permutation is unique: one
    :func:`~repro.exec.vectorized.strict_sort` of the composite keys --
    one batched array pass over the whole input instead of
    O(log^2 n) interpreted stream operations -- must produce the
    byte-identical reference output.  Unique ids and orderable keys are
    the input contract, checked once at the request
    (:meth:`~repro.engines.base.SortRequest.to_values`).

The closed forms are *proved equal to the interpreter*, not re-modeled:
linear reads/writes follow exactly the per-port charging of
:class:`~repro.stream.kernel.KernelContext` / ``finalize_kernel``
(``instances x per_instance`` elements at the port's element size, with
the ``value_only`` ports charged at ``VALUE_DTYPE`` size), and gather
traffic follows :data:`KERNEL_GATHER_PROFILE`, the audited per-kernel
gather counts of every kernel body in the repository.  The fuzz suite
(``tests/exec/test_stream_equivalence.py``) replays both tiers and asserts
record-for-record equality of op logs, counters, and derived cache
statistics.

**One drive per program and length.**  Fact 1 makes the op log a pure
function of (program, padded length), so each is driven once per process
and memoized with its counters and the modeled costs asked of it
(:func:`modeled_cost`) -- PPT-GPU's split of an architecture-independent
task list characterised once from a prediction per architecture.

**One entry point.**  Every caller -- the engines, the sharded sorter's
shards, external run formation, the key generator and the timing tables
-- sorts through :func:`sort_on_stream`, which pads to a power of two
under the one padding rule of
:func:`~repro.workloads.records.pad_to_power_of_two`, serves the sort
from the memo or the reference interpreter, and strips the padding.  The
one caller that needs a machine but no sorted output -- the sharded
sorter, whose merge sorts the union of its raw shards -- calls the memo
lookup :func:`counting_machine` alone, on the unpadded shard: only a
memo miss pads it.

**Fallback conditions** (wholesale, to the reference interpreter -- the
tier contract is bit-identity, so anything not provably coverable runs the
real thing):

* ``validate_levels`` debugging runs: the driver reads stream contents
  mid-sort;
* gather tracing (``trace_gathers``): traces are data-dependent by
  definition;
* any kernel name without an entry in :data:`KERNEL_GATHER_PROFILE`
  (raises :class:`StreamTierUnsupported`, which :func:`sort_on_stream`
  turns into a reference re-run).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable

import numpy as np

from repro.core.api import ABiSortConfig, make_sorter
from repro.errors import SortInputError
from repro.exec.vectorized import strict_sort
from repro.stream.context import MachineCounters, StreamMachine, StreamOpRecord
from repro.stream.gpu_model import CostBreakdown, GPUModel, estimate_gpu_time_ms
from repro.stream.kernel import (
    KernelBody,
    KernelStats,
    _InputPort,
    _IterPort,
    _OutputPort,
)
from repro.stream.mapping2d import Mapping2D
from repro.stream.stream import Stream, Substream, VALUE_DTYPE
from repro.workloads.records import pad_to_power_of_two, padded_length

__all__ = [
    "KERNEL_GATHER_PROFILE",
    "StreamTierUnsupported",
    "CountingStreamMachine",
    "sorted_output",
    "counting_machine",
    "counting_sort_run",
    "counting_network_run",
    "sort_on_stream",
    "modeled_cost",
]


class StreamTierUnsupported(Exception):
    """Internal signal: this launch has no closed-form profile.

    Raised by :class:`CountingStreamMachine` mid-drive; the memo entry
    points catch it and :func:`sort_on_stream` re-runs the whole sort on
    the reference interpreter (the counting drive has no caller-visible
    side effects, so a wholesale restart is safe where a per-op fallback
    would not be -- stream contents are never materialised in counting
    mode).
    """


#: Audited gather traffic per kernel body: ``{kernel name: {gather port:
#: elements gathered per instance}}``.  These counts restate what each body
#: in :mod:`repro.core.kernels` / :mod:`repro.baselines.bitonic_network`
#: does unconditionally -- e.g. ``traverse16`` gathers the 2 + 4 + 8 nodes
#: of its subtree levels, ``bitonic_merge16`` its full 16-sequence -- so
#: charging them closed-form is exact, not approximate.  A kernel absent
#: here cannot run in counting mode (see :class:`StreamTierUnsupported`).
KERNEL_GATHER_PROFILE: dict[str, dict[str, int]] = {
    "init_tree_links": {},
    "local_sort8": {},
    "extract_roots": {"trees": 2},
    "phase0": {},
    "phaseI": {"trees": 2},
    "traverse16": {"trees": 14},
    "bitonic_merge16": {"seq": 16},
    "network_pass": {"data": 1},
}


class CountingStreamMachine(StreamMachine):
    """A stream machine that logs exactly like the reference, sans compute.

    Every validation step of :meth:`StreamMachine.kernel` / ``copy`` /
    ``copy_values`` (length checks, duplicate ports, const shapes, the
    Section-6.1 distinct-IO rules, output overlap) still runs, so the
    machine raises the same errors in the same order; only the execution
    halves are replaced: kernel bodies are never called (traffic is charged
    closed-form from the port declarations plus
    :data:`KERNEL_GATHER_PROFILE`) and copies move no bytes (their records
    are pure functions of lengths and element sizes).  Stream *contents*
    are therefore garbage by design -- callers must obtain the sorted
    output elsewhere (see :func:`sorted_output`) and may read only the op
    log, counters, and allocation accounting, all of which are identical
    to a reference run by construction.  A machine served from the memo
    carries its entry as :attr:`run` and shares the entry's records and
    counters.
    """

    run: "_CountingRun | None" = None

    def counters(self) -> MachineCounters:
        """The op log's aggregate; a copy of the entry's when memo-served."""
        if self.run is None:
            return super().counters()
        return replace(self.run.counters)

    def _execute_kernel(
        self,
        name: str,
        instances: int,
        body: KernelBody,
        in_ports: dict[str, _InputPort],
        gathers: dict[str, Stream],
        iter_ports: dict[str, _IterPort],
        consts: dict[str, np.ndarray],
        out_ports: dict[str, _OutputPort],
    ) -> KernelStats:
        if self.trace_gathers:
            raise StreamTierUnsupported(
                "gather traces are data-dependent; use the reference tier"
            )
        profile = KERNEL_GATHER_PROFILE.get(name)
        if profile is None or set(profile) != set(gathers):
            raise StreamTierUnsupported(
                f"no closed-form gather profile for kernel {name!r}"
            )
        stats = KernelStats(instances=instances)
        # Linear reads: KernelContext.read charges `instances` elements per
        # declared read, and finalize_kernel enforces exactly per_instance
        # reads per port -- so the total is forced by the declaration.
        for port in in_ports.values():
            elems = instances * port.per_instance
            itemsize = (
                VALUE_DTYPE.itemsize
                if port.value_only
                else port.substream.stream.itemsize
            )
            stats.linear_read_elems += elems
            stats.linear_read_bytes += elems * itemsize
        # Gathers: the audited per-instance counts times the gather
        # stream's element size (KernelContext.gather charges idx.size).
        for gname, per in profile.items():
            elems = per * instances
            stats.gather_elems += elems
            stats.gather_bytes += elems * gathers[gname].itemsize
        # Writes: finalize_kernel commits exactly instances x per_instance
        # elements per output port, value-only ports at VALUE_DTYPE size.
        for port in out_ports.values():
            elems = instances * port.per_instance
            itemsize = (
                VALUE_DTYPE.itemsize
                if port.value_only
                else port.substream.stream.itemsize
            )
            stats.linear_write_elems += elems
            stats.linear_write_bytes += elems * itemsize
        return stats

    def _execute_copy(self, src: Substream, dst: Substream) -> None:
        pass  # record fields depend only on lengths and element sizes

    def _execute_copy_values(self, src: Substream, dst: Substream) -> None:
        pass


def sorted_output(values: np.ndarray) -> np.ndarray:
    """The forced sorted result of ``values`` under the strict total order.

    One :func:`~repro.exec.vectorized.strict_sort`.  Raises
    :class:`~repro.errors.SortInputError` for a wrong dtype or when two
    records share a composite -- the reference sorter rejects both.
    """
    if values.dtype != VALUE_DTYPE:
        raise SortInputError(f"expected VALUE_DTYPE input, got {values.dtype}")
    ranked = strict_sort(values)
    if ranked is None:
        raise SortInputError("value ids must be unique")
    return ranked


@dataclass
class _CountingRun:
    """One memo entry: a drive's op log (shared, frozen records), counters
    and peak allocation, plus the modeled costs asked of it so far."""

    ops: tuple[StreamOpRecord, ...]
    counters: MachineCounters
    peak_alloc_bytes: int
    distinct_io: bool
    costs: dict[Hashable, CostBreakdown] = field(default_factory=dict)


#: The process-wide memo ``{(program, padded n): run}``; a program is an
#: ``ABiSortConfig`` or a network's stream-program function.  Lengths are
#: powers of two, so a program holds at most ~31 entries.
_RUNS: dict[tuple, _CountingRun] = {}


def counting_machine(program, values: np.ndarray) -> CountingStreamMachine | None:
    """The machine sorting ``values`` with ``program`` logs, without sorting.

    ``values`` (``n >= 1``) need not be padded: the machine is that of its
    padding to a power of two, served from the memo entry
    ``(program, padded n)``.  Only a miss reads ``values``: it drives the
    program on a padded private copy.  Returns ``None`` when the memo
    declines (``validate_levels``, or an unprofiled kernel).  Threads
    racing on a miss drive equal runs; the first wins.
    """
    if isinstance(program, ABiSortConfig) and program.validate_levels:
        return None  # the validator reads stream contents mid-sort
    key = (program, padded_length(values.shape[0]))
    run = _RUNS.get(key)
    if run is None:
        padded = pad_to_power_of_two(values)[0]
        try:
            driven = _run_program(program, padded, _counting_machine)[1]
        except StreamTierUnsupported:
            return None
        run = _RUNS.setdefault(
            key,
            _CountingRun(
                tuple(driven.ops),
                driven.counters(),
                driven.peak_alloc_bytes,
                driven.distinct_io,
            ),
        )
    machine = CountingStreamMachine(distinct_io=run.distinct_io)
    machine.ops.extend(run.ops)
    machine.peak_alloc_bytes = run.peak_alloc_bytes
    machine.run = run
    return machine


def _counting_run(program, values: np.ndarray):
    """:func:`sorted_output` plus :func:`counting_machine`, or ``None``."""
    out = sorted_output(values)
    machine = counting_machine(program, values)
    return None if machine is None else (out, machine)


def _counting_machine(distinct_io: bool) -> CountingStreamMachine:
    return CountingStreamMachine(distinct_io=distinct_io)


def _run_program(program, values: np.ndarray, new_machine):
    """Run ``program`` on a machine from ``new_machine(distinct_io=...)``.

    ``program`` is an :class:`~repro.core.api.ABiSortConfig` or a network's
    ``(values, machine) -> (out, machine)`` stream function.  Returns
    ``(out, machine)``.
    """
    if not isinstance(program, ABiSortConfig):
        return program(values, new_machine(distinct_io=True))
    machines: list[StreamMachine] = []

    def factory(distinct_io: bool) -> StreamMachine:
        machines.append(new_machine(distinct_io=distinct_io))
        return machines[-1]

    out = make_sorter(program, machine_factory=factory).sort(values)
    return out, machines[0]


def counting_sort_run(
    config: ABiSortConfig, values: np.ndarray
) -> tuple[np.ndarray, StreamMachine] | None:
    """Sort ``values`` with the GPU-ABiSort variant ``config``, counting mode.

    Returns ``(sorted values, machine)`` -- the machine carrying the
    reference-identical op log -- or ``None`` when the caller must fall
    back to a reference run (``validate_levels``, or an unprofiled
    kernel).  ``values`` meets the input contract (see
    :func:`sorted_output`).
    """
    return _counting_run(config, values)


def counting_network_run(
    stream_sorter: Callable, values: np.ndarray
) -> tuple[np.ndarray, StreamMachine] | None:
    """Run one network stream program in counting mode.

    ``stream_sorter`` is a ``(values, machine) -> (out, machine)`` entry
    point such as :func:`repro.baselines.bitonic_network.gpusort_stream`.
    Same contract as :func:`counting_sort_run`.
    """
    return _counting_run(stream_sorter, values)


def sort_on_stream(
    program, values: np.ndarray, *, trace: bool = False
) -> tuple[np.ndarray, StreamMachine]:
    """Sort ``values`` (``n >= 1``) with a stream program on the machine.

    The one way every caller runs GPU-ABiSort (``program`` an
    :class:`~repro.core.api.ABiSortConfig`) or a sorting network
    (``program`` its stream function):

    1. pad to a power of two with
       :func:`~repro.workloads.records.pad_to_power_of_two` (``+inf`` keys,
       ids above the input's largest id);
    2. serve the sort from the memo (:func:`counting_sort_run` /
       :func:`counting_network_run`) unless ``trace`` is set, in which case
       -- and whenever the memo declines (``validate_levels``) -- the
       reference interpreter runs it;
    3. strip the padding: a slice when the padding sorted last, by id
       otherwise (padding at the uint32 id ceiling).

    Returns ``(sorted values, machine)``; cost the machine with
    :func:`modeled_cost`.
    """
    padded, n = pad_to_power_of_two(values)
    ran = None
    if not trace:
        if isinstance(program, ABiSortConfig):
            ran = counting_sort_run(program, padded)
        else:
            ran = counting_network_run(program, padded)
    out, machine = ran or _run_program(program, padded, StreamMachine)
    pad_ids = padded["id"][n:]
    if not np.array_equal(out["id"][n:], pad_ids):
        return out[~np.isin(out["id"], pad_ids)], machine
    return out[:n], machine


def _value_key(obj) -> Hashable:
    """``obj`` by value (``GPUModel`` holds a dict; mappings hash by id)."""
    if obj is None:
        return None
    return (type(obj),) + tuple(
        (name, tuple(sorted(v.items())) if isinstance(v, Mapping) else v)
        for name, v in sorted(vars(obj).items())
    )


def modeled_cost(
    machine: StreamMachine,
    gpu: GPUModel,
    mapping: Mapping2D | None = None,
    fixed_read_efficiency: float | None = None,
) -> CostBreakdown:
    """:func:`~repro.stream.gpu_model.estimate_gpu_time_ms` of ``machine``'s log.

    The one cost entry point of the engines, the cluster and run
    formation: computed once per memo entry and (GPU model, mapping,
    efficiency) by value, and afresh for reference-tier machines.
    """
    run = machine.run if isinstance(machine, CountingStreamMachine) else None
    key = (_value_key(gpu), _value_key(mapping), fixed_read_efficiency)
    cost = run.costs.get(key) if run is not None else None
    if cost is None:
        cost = estimate_gpu_time_ms(
            machine.ops, gpu, mapping, fixed_read_efficiency=fixed_read_efficiency
        )
        if run is None:
            return cost
        cost = run.costs.setdefault(key, cost)
    return replace(cost, by_tag=dict(cost.by_tag))
