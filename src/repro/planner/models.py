"""Built-in cost models: one per built-in backend family.

Each model predicts the :func:`repro.engines.cost.measured_cost_ms` of a
request *without serving it*, from the request shape and the hardware
models alone:

==========================  =============================================
engine family               prediction strategy
==========================  =============================================
ABiSort variants, networks  calibrated stream cost curve
                            (:mod:`repro.planner.calibration`): exact at
                            probed sizes, fitted log-polynomial beyond,
                            plus the Section-8 bus round trip
``sharded-abisort``         *composed*: the real
                            :class:`~repro.cluster.planner.ShardPlanner`
                            partitions n, each shard is priced by the
                            ABiSort curve, and
                            :func:`~repro.cluster.sharded.shard_schedule`
                            -- the rule the engine's own schedule comes
                            from -- lays out the overlapped pipeline and
                            the closed-form loser-tree merge
``cpu-quicksort``           probed expected operation count fitted over
                            ``{n log2 n, n}`` (data-dependent by a few
                            percent, as the paper's CPU ranges are)
``cpu-std``                 exact ``n log2 n`` comparison convention
                            (:func:`~repro.analysis.complexity.library_sort_comparisons`)
``odd-even-transition``     exact closed-form exchange count
``external``                composed run-formation + merge + disk model
                            (seek counts approximated; see class docs)
==========================  =============================================

Each built-in adapter of :mod:`repro.engines.adapters` carries its model
as :attr:`~repro.engines.base.SortEngine.cost_model` (the stream engines
build theirs per instance, so their calibrated curves go with the
instance; the three CPU sorts are one :class:`CPUCostModel` over their
op-count functions); the planner reads it off the engine the registry
returns.

The module also hosts :class:`CompactionCostModel` /
:func:`plan_compaction`: the :mod:`repro.store` layer's planner for
merging a set of sorted runs.  It is not an engine cost model (there is
no :class:`~repro.engines.base.SortRequest` to price) but it composes
the same primitives -- the closed-form loser-tree merge count, the
:class:`~repro.hybrid.disk.DiskStats` seek/bandwidth model the
:class:`ExternalCostModel` uses, and the cluster's LPT scheduler -- so
store compaction is scored by exactly the cost conventions the rest of
the planner follows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.analysis.complexity import loser_tree_merge_comparisons
from repro.engines.cost import CostEstimate, CostModel
from repro.engines.registry import get
from repro.errors import ModelError
from repro.planner.calibration import (
    ANCHOR_EXPONENTS,
    PROBE_SEED,
    CostCurve,
    calibrate_stream_engine,
    hardware_key,
)
from repro.stream.gpu_model import (
    PCIE_SYSTEM,
    HostSystem,
    cpu_sort_time_ms,
    transfer_round_trip_ms,
)
from repro.stream.stream import PAIR_BYTES
from repro.workloads.records import padded_length

__all__ = [
    "StreamCostModel",
    "ShardedCostModel",
    "CPUCostModel",
    "quicksort_ops",
    "ExternalCostModel",
    "CompactionCostModel",
    "CompactionCandidate",
    "CompactionPlan",
    "plan_compaction",
]


def _shape_n(request) -> int:
    """Input length of a request without packing its arrays."""
    if request.values is not None:
        return int(request.values.shape[0])
    return 0 if request.keys is None else int(len(request.keys))


class StreamCostModel(CostModel):
    """Single-device stream engines (ABiSort variants and the networks).

    Cost = calibrated modeled GPU time at the engine's effective length
    (:func:`~repro.workloads.records.padded_length`: the ABiSort engines
    pad, the networks only accept powers of two) + the bus round trip of
    the actual payload.
    Each engine instance builds its own model, which probes the engine
    registered under ``engine_name`` once per (GPU, mapping) and keeps
    the curve for as long as the engine lives.
    """

    def __init__(self, engine_name: str):
        self.engine_name = engine_name
        self._curves: dict[tuple[str, str], CostCurve] = {}

    def curve(self, request) -> CostCurve:
        """The engine's calibrated curve under ``request``'s hardware."""
        key = hardware_key(request)
        curve = self._curves.get(key)
        if curve is None:  # racing threads only repeat a deterministic fit
            curve = self._curves[key] = calibrate_stream_engine(
                self.engine_name, request
            )
        return curve

    def estimate(self, request, *, devices=None) -> CostEstimate:
        n = _shape_n(request)
        if n <= 1:
            return CostEstimate()
        curve = self.curve(request)
        return CostEstimate(
            modeled_gpu_ms=curve.predict_ms(padded_length(n)),
            modeled_transfer_ms=transfer_round_trip_ms(n, request.host),
            transfer_bytes=2 * n * PAIR_BYTES,
        )


class ShardedCostModel(CostModel):
    """The multi-device engine, composed from the planner's own parts.

    Runs the *actual* shard planner on the request, prices each shard
    with the ABiSort cost curve (each padded to its own power of two, as
    the stream tier pads it), and hands those times to
    :func:`~repro.cluster.sharded.shard_schedule`, the rule
    :class:`~repro.cluster.sharded.ShardedSorter` prices its own schedule
    by.  Prediction error therefore reduces to the per-shard curve error
    -- zero at calibration anchors.
    """

    #: Device count when the request names none (the engine's default too).
    default_devices = 2

    def __init__(self, slices_per_device: int):
        self.slices_per_device = slices_per_device

    def device_counts(self, request, max_devices):
        if request.devices is not None:
            return (request.devices,)
        return tuple(range(1, max_devices + 1))

    def estimate(self, request, *, devices=None) -> CostEstimate:
        from repro.cluster.device import make_devices
        from repro.cluster.planner import ShardPlanner
        from repro.cluster.sharded import shard_schedule

        n = _shape_n(request)
        count = devices or request.devices or self.default_devices
        if n <= 1:
            return CostEstimate(devices=count)
        curve = get("abisort").cost_model.curve(request)
        plan = ShardPlanner(count, self.slices_per_device).plan(n)
        sort_ms = [
            curve.predict_ms(padded_length(length)) if length >= 2 else 0.0
            for length in plan.lengths()
        ]
        cluster = make_devices(count, gpu=request.gpu, host=request.host)
        schedule, _ = shard_schedule(plan, sort_ms, cluster, request.host)
        return CostEstimate(
            modeled_gpu_ms=sum(sort_ms),
            modeled_cpu_ms=schedule.merge_ms,
            modeled_transfer_ms=schedule.transfer_ms,
            transfer_bytes=schedule.transfer_bytes,
            makespan_ms=schedule.makespan_ms,
            devices=plan.used_devices,
        )


class CPUCostModel(CostModel):
    """A host sort priced by its operation count: ``ops(n)`` operations at
    the host's per-op cost, the convention of the CPU engines' telemetry.

    ``ops`` is the closed form for ``cpu-std`` (the ``n log2 n``
    convention the engine's telemetry counts too, so prediction ==
    measurement) and ``odd-even-transition`` (the exact exchange count),
    and :func:`quicksort_ops` for ``cpu-quicksort``.
    """

    def __init__(self, ops):
        self.ops = ops

    def estimate(self, request, *, devices=None) -> CostEstimate:
        ops = self.ops(_shape_n(request))
        return CostEstimate(modeled_cpu_ms=cpu_sort_time_ms(ops, request.host))


@functools.cache
def _quicksort_fit() -> tuple[float, float]:
    """The ``{n log2 n, n}`` coefficients of :func:`quicksort_ops`."""
    from repro.baselines.cpu_sort import CPUSortCounters, quicksort
    from repro.core.values import make_values

    rng = np.random.default_rng(PROBE_SEED)
    rows = []
    ops = []
    for exponent in ANCHOR_EXPONENTS:
        n = 1 << exponent
        counters = CPUSortCounters()
        quicksort(make_values(rng.random(n, dtype=np.float32)), counters)
        rows.append([n * exponent, n])
        ops.append(counters.total_ops)
    coef, *_ = np.linalg.lstsq(
        np.array(rows, dtype=float), np.array(ops, dtype=float), rcond=None
    )
    return float(coef[0]), float(coef[1])


def quicksort_ops(n: int) -> int:
    """The instrumented CPU quicksort's expected operation count.

    The count is data dependent (the paper's Tables 2/3 print CPU *ranges*
    for exactly this reason), so this predicts the expectation: probe runs
    over random permutations at the calibration anchors, fitted over
    ``{n log2 n, n}`` once per process, on first use.  Random workloads
    land within a few percent; fully presorted or adversarial inputs
    deviate further, as they do in the paper.
    """
    if n < 2:
        return 0
    a, b = _quicksort_fit()
    return int(a * n * np.log2(n) + b * n)


class ExternalCostModel(CostModel):
    """The out-of-core pipeline, composed stage by stage.

    Exact pieces: run count, per-chunk GPU cost (ABiSort curve at each
    chunk's padded length), loser-tree merge comparisons, and the byte
    traffic (the input spill plus one read + one write per record in both
    the formation and merge stages).  Approximate piece: the *seek* count
    -- the simulated disk charges a seek whenever an access is
    discontiguous, which interleaved chunk/run/buffer traffic makes
    mostly-always true, so the model counts every formation access and
    every merge buffer refill/flush as one seek.  Accurate to ~10% (the
    merge's first-buffer reuse and tail flushes are not simulated); good
    enough to rank, since I/O dominates this engine by an order of
    magnitude whenever any in-core engine is feasible.
    """

    def __init__(self, chunk_size: int, merge_buffer: int):
        self.chunk_size = chunk_size
        self.merge_buffer = merge_buffer

    def chunk(self, n: int) -> int:
        """In-core run length for ``n`` pairs (the engine sorts with it)."""
        return min(self.chunk_size, padded_length(n))

    def estimate(self, request, *, devices=None) -> CostEstimate:
        from repro.hybrid.disk import DiskStats

        n = _shape_n(request)
        if n <= 1:
            return CostEstimate()
        chunk = self.chunk(n)
        runs = -(-n // chunk)
        last = n - (runs - 1) * chunk

        curve = get("abisort").cost_model.curve(request)
        gpu_ms = 0.0
        if runs > 1:
            gpu_ms += (runs - 1) * curve.predict_ms(chunk)
        gpu_ms += curve.predict_ms(padded_length(last)) if last >= 2 else 0.0

        comparisons = loser_tree_merge_comparisons(n, runs)
        cpu_ms = cpu_sort_time_ms(comparisons, request.host)

        # Byte traffic: input spill (w) + formation (r + w) + merge (r + w).
        pair = n * PAIR_BYTES
        stats = DiskStats(bytes_read=2 * pair, bytes_written=3 * pair)
        # Seeks: the input spill, one read + one write per chunk, then the
        # merge -- a single run is copied (one read, one write); k runs
        # pay one initial read per run plus interleaved buffer refills and
        # output flushes (~2 per merge_buffer of records).
        stats.seeks = 1 + 2 * runs
        if runs == 1:
            stats.seeks += 2
        else:
            stats.seeks += runs + 2 * (-(-n // self.merge_buffer))
        return CostEstimate(
            modeled_gpu_ms=gpu_ms,
            modeled_cpu_ms=cpu_ms,
            modeled_io_ms=stats.io_time_ms(),
        )


#: Pairs a compaction merge may hold in memory at once.  The budget is
#: split over the k input cursors plus the output cursor, so larger
#: fan-in means smaller per-run buffers and more refill seeks -- the
#: classic external-merge fan-in tradeoff the planner optimizes.
COMPACTION_MEMORY_PAIRS = 1 << 10


class CompactionCostModel:
    """Modeled cost of merging sorted runs down to one, LSM style.

    A compaction at fan-in f repeatedly groups the live runs (sorted by
    length, ascending) into batches of at most f, merges each batch with
    a loser tree, and repeats on the merged outputs until one run
    remains.  Per merge group of runs summing to m pairs:

    * **CPU**: the closed-form loser-tree count
      (:func:`~repro.analysis.complexity.loser_tree_merge_comparisons`),
      priced by :func:`~repro.stream.gpu_model.cpu_sort_time_ms` -- the
      exact convention :class:`~repro.hybrid.external.LoserTree` counts,
      so prediction equals measurement when all runs are non-empty.
    * **I/O**: every pair is read once and written once; seeks follow
      the :class:`~repro.hybrid.external.ExternalSorter` streaming
      pattern with per-cursor buffers of ``memory_pairs // (k + 1)``
      pairs (one refill seek per buffer of input, one flush seek per
      buffer of output), priced by
      :meth:`~repro.hybrid.disk.DiskStats.io_time_ms`.

    Groups within one pass are independent, so a pass's makespan is the
    max device load under the cluster's deterministic LPT placement
    (:func:`~repro.cluster.scheduler.lpt`) -- each
    modeled device streams its groups from its own disk, exactly as the
    sharded sorter assumes per-device buses.  The estimate's
    ``makespan_ms`` sums the per-pass makespans.
    """

    def __init__(
        self,
        host: HostSystem = PCIE_SYSTEM,
        memory_pairs: int = COMPACTION_MEMORY_PAIRS,
    ):
        if memory_pairs < 2:
            raise ModelError(
                f"compaction needs a memory budget >= 2 pairs, got {memory_pairs}"
            )
        self.host = host
        self.memory_pairs = memory_pairs

    def group_seeks(self, lengths) -> int:
        """Seeks one merge group pays under the buffered streaming model."""
        k = len(lengths)
        total = sum(lengths)
        buffer = max(1, self.memory_pairs // (k + 1))
        refills = sum(-(-length // buffer) for length in lengths)
        flushes = -(-total // buffer)
        return refills + flushes

    def group_io(self, lengths):
        """The :class:`~repro.hybrid.disk.DiskStats` charge of one merge
        group: every pair read once and written once, plus its seeks."""
        from repro.hybrid.disk import DiskStats

        nbytes = int(sum(lengths)) * PAIR_BYTES
        return DiskStats(reads=len(lengths), writes=1, bytes_read=nbytes,
                         bytes_written=nbytes, seeks=self.group_seeks(lengths))

    def group_estimate(self, lengths) -> CostEstimate:
        """Cost of one k-way merge group (k = 1 is a carry: free)."""
        k = len(lengths)
        total = int(sum(lengths))
        if k < 2 or total == 0:
            return CostEstimate()
        comparisons = loser_tree_merge_comparisons(total, k)
        return CostEstimate(
            modeled_cpu_ms=cpu_sort_time_ms(comparisons, self.host),
            modeled_io_ms=self.group_io(lengths).io_time_ms(),
        )

    def passes(self, run_lengths, fan_in: int, devices: int = 1) -> list[tuple]:
        """The deterministic schedule a compaction executes, pass by pass.

        Each pass groups the surviving lengths (ascending) into chunks of
        at most ``fan_in``; singleton groups carry through unmerged.  The
        groups are LPT-placed on ``devices`` by their
        :meth:`group_estimate` cost (:func:`~repro.cluster.scheduler.lpt`).
        Returns one ``(groups, assignment, estimates, makespan_ms)`` per
        pass, each group a ``slice`` of that pass's ascending lengths.  The
        executor in :mod:`repro.store.compaction` orders the *runs* the
        same way (ascending length, ties by run name) and runs these
        groups on these devices, so it executes exactly what
        :meth:`estimate` prices.
        """
        from repro.cluster.scheduler import lpt

        if fan_in < 2:
            raise ModelError(f"compaction fan-in must be >= 2, got {fan_in}")
        if devices < 1:
            raise ModelError(f"compaction needs >= 1 device, got {devices}")
        lengths = sorted(int(length) for length in run_lengths if int(length) > 0)
        schedule: list[tuple] = []
        while len(lengths) > 1:
            groups = [slice(i, i + fan_in) for i in range(0, len(lengths), fan_in)]
            estimates = [self.group_estimate(lengths[group]) for group in groups]
            assignment, loads = lpt([e.cost_ms for e in estimates], range(devices))
            schedule.append((groups, assignment, estimates, max(loads.values())))
            lengths = sorted(sum(lengths[group]) for group in groups)
        return schedule

    def estimate(self, run_lengths, *, fan_in: int, devices: int = 1) -> CostEstimate:
        """Full-compaction cost at one (fan-in, device-count) point."""
        cpu_ms = io_ms = makespan_ms = 0.0
        for _groups, _assignment, estimates, pass_ms in self.passes(
            run_lengths, fan_in, devices
        ):
            makespan_ms += pass_ms
            cpu_ms += sum(e.modeled_cpu_ms for e in estimates)
            io_ms += sum(e.modeled_io_ms for e in estimates)
        return CostEstimate(
            modeled_cpu_ms=cpu_ms,
            modeled_io_ms=io_ms,
            makespan_ms=makespan_ms,
            devices=devices,
        )


@dataclass(frozen=True)
class CompactionCandidate:
    """One scored (fan-in, devices) point of a compaction plan."""

    fan_in: int
    devices: int
    estimate: CostEstimate

    @property
    def cost_ms(self) -> float:
        """The scalar the compaction planner minimises."""
        return self.estimate.cost_ms


@dataclass(frozen=True)
class CompactionPlan:
    """The compaction planner's decision, with its scored alternatives."""

    run_lengths: tuple[int, ...]
    fan_in: int
    devices: int
    estimate: CostEstimate
    candidates: tuple[CompactionCandidate, ...]

    @property
    def cost_ms(self) -> float:
        """Predicted makespan of the chosen (fan-in, devices) point."""
        return self.estimate.cost_ms

    def explain(self) -> str:
        """Human-readable plan: every candidate scored, the winner starred."""
        lines = [
            f"compaction of {len(self.run_lengths)} runs "
            f"({sum(self.run_lengths)} pairs): fan-in {self.fan_in} on "
            f"{self.devices} device(s), predicted {self.cost_ms:.3f} ms"
        ]
        for cand in sorted(self.candidates, key=lambda c: c.cost_ms):
            star = "*" if (cand.fan_in, cand.devices) == (self.fan_in, self.devices) else " "
            e = cand.estimate
            lines.append(
                f"  {star} fan-in {cand.fan_in} x {cand.devices} dev: "
                f"{cand.cost_ms:9.3f} ms "
                f"(cpu {e.modeled_cpu_ms:.3f} + io {e.modeled_io_ms:.3f})"
            )
        return "\n".join(lines)


def plan_compaction(
    run_lengths,
    *,
    host: HostSystem = PCIE_SYSTEM,
    memory_pairs: int = COMPACTION_MEMORY_PAIRS,
    max_fan_in: int = 8,
    max_devices: int = 4,
) -> CompactionPlan:
    """Score every (fan-in, devices) candidate and pick the cheapest.

    Enumerates fan-in 2..min(max_fan_in, live runs) crossed with device
    counts 1..max_devices, scores each with :class:`CompactionCostModel`,
    and picks the minimum predicted cost (ties prefer fewer devices, then
    smaller fan-in -- extra devices that do not move the makespan are not
    worth occupying).  Raises :class:`~repro.errors.ModelError` with
    fewer than two non-empty runs: there is nothing to compact.
    """
    live = tuple(sorted(int(length) for length in run_lengths if int(length) > 0))
    if len(live) < 2:
        raise ModelError(
            f"compaction needs at least two non-empty runs, got {len(live)}"
        )
    model = CompactionCostModel(host=host, memory_pairs=memory_pairs)
    candidates = tuple(
        CompactionCandidate(f, d, model.estimate(live, fan_in=f, devices=d))
        for f in range(2, min(max_fan_in, len(live)) + 1)
        for d in range(1, max_devices + 1)
    )
    best = min(candidates, key=lambda c: (c.cost_ms, c.devices, c.fan_in))
    return CompactionPlan(
        run_lengths=live,
        fan_in=best.fan_in,
        devices=best.devices,
        estimate=best.estimate,
        candidates=candidates,
    )

