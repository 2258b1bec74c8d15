"""The cost-model planner: enumerate, score, pick, cache.

The plan half of the plan -> execute pipeline.  :meth:`Planner.plan` turns
one :class:`~repro.engines.base.SortRequest` into a :class:`SortPlan`:

1. **enumerate** -- every registered engine that is capability-feasible
   for the request (declares the required flags;
   :meth:`~repro.engines.base.EngineCapabilities.accepts` the length) and
   carries a cost model (the ``auto`` front end carries none);
2. **score** -- each candidate's :class:`~repro.engines.cost.CostEstimate`
   from its cost model, cluster-aware engines once per device count in
   ``1..max_devices``;
3. **pick** -- the cheapest :attr:`~repro.engines.cost.CostEstimate.cost_ms`
   (ties break to the lexically first engine name, then the smaller
   device count: deterministic plans);
4. **cache** -- plans are memoised per :class:`RequestShape` in an LRU
   (the :mod:`repro.stream.cache` idiom), invalidated wholesale whenever
   the engine registry's population changes.

:meth:`Planner.plan_batch` chooses a cluster size for a whole batch:
per-request plans supply the task weights, each cluster size up to the
cap is filled by LPT (:func:`~repro.cluster.scheduler.lpt`), and the
smallest cluster within :data:`BATCH_TOLERANCE` of the best predicted
makespan wins -- more devices are never free in a real deployment, so
the planner does not burn them for thin gains.  A *fixed* pool (the
service's, ``sort_batch(devices=N)``) is filled by LPT alone, with no
planner choosing its size.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.engines import registry
from repro.engines.base import SortRequest
from repro.engines.cost import CostEstimate, RequestShape, request_shape
from repro.errors import EngineError
from repro.exec import resolve_request_tier

__all__ = [
    "PlanCandidate",
    "SortPlan",
    "BatchPlan",
    "PlanCache",
    "Planner",
]

#: A larger cluster must beat a smaller one by more than this relative
#: margin of predicted batch makespan to be worth its devices.
BATCH_TOLERANCE = 0.02


@dataclass(frozen=True)
class PlanCandidate:
    """One scored (engine, devices) alternative."""

    engine: str
    devices: int | None
    estimate: CostEstimate

    @property
    def cost_ms(self) -> float:
        """The candidate's predicted scalar cost (what the pick minimises)."""
        return self.estimate.cost_ms


@dataclass(frozen=True)
class SortPlan:
    """The planner's decision for one request shape.

    ``engine`` / ``devices`` are what :func:`repro.sort` executes;
    ``estimate`` is the winning prediction; ``candidates`` keeps every
    scored alternative (cheapest first) so a decision can be explained
    after the fact.
    """

    shape: RequestShape
    engine: str
    devices: int | None
    estimate: CostEstimate
    candidates: tuple[PlanCandidate, ...]

    @property
    def exec_tier(self) -> str:
        """Execution tier of the hot loops (:mod:`repro.exec`):
        ``reference`` for traced requests, ``vectorized`` otherwise.  Both
        tiers return the same bytes and the same modeled telemetry."""
        return resolve_request_tier(self.shape)

    @property
    def cost_ms(self) -> float:
        """The winning candidate's predicted scalar cost."""
        return self.estimate.cost_ms

    def explain(self) -> str:
        """A human-readable account of the decision: the request shape,
        then every candidate's predicted cost breakdown, winner starred."""
        lines = [f"plan for {self.shape.describe()}:"]
        width = max((len(c.engine) for c in self.candidates), default=10) + 3
        lines.append(
            f"  {'engine':<{width}} {'devices':>7}  {'predicted':>11}  "
            f"{'gpu':>9}  {'cpu':>9}  {'i/o':>9}  {'bus':>9}"
        )
        for cand in self.candidates:
            e = cand.estimate
            starred = cand.engine + (
                "*"
                if cand.engine == self.engine and cand.devices == self.devices
                else ""
            )
            lines.append(
                f"  {starred:<{width}} {cand.devices or 1:>7}  "
                f"{cand.cost_ms:>9.3f}ms  {e.modeled_gpu_ms:>7.3f}ms  "
                f"{e.modeled_cpu_ms:>7.3f}ms  {e.modeled_io_ms:>7.3f}ms  "
                f"{e.modeled_transfer_ms:>7.3f}ms"
            )
        dev = f" on {self.devices} devices" if self.devices else ""
        lines.append(
            f"  -> {self.engine}{dev}, predicted {self.cost_ms:.3f} ms, "
            f"{self.exec_tier} execution tier"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class BatchPlan:
    """The planner's decision for a batch: a cluster size and an LPT
    device assignment (device index per request, in request order)."""

    devices: int
    assignment: tuple[int, ...]
    predicted_makespan_ms: float


class PlanCache:
    """LRU plan memo keyed by request shape (the ``stream/cache.py``
    idiom: an :class:`OrderedDict` with move-to-end on hit), invalidated
    as a whole when the engine registry's generation changes."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise EngineError("plan cache needs capacity >= 1")
        self.capacity = capacity
        self._lru: OrderedDict[RequestShape, SortPlan] = OrderedDict()
        self._generation = registry.generation()
        self.hits = 0
        self.misses = 0

    def _validate(self) -> None:
        generation = registry.generation()
        if generation != self._generation:
            self._lru.clear()
            self._generation = generation

    def get(self, shape: RequestShape) -> SortPlan | None:
        """The cached plan for ``shape``, or ``None`` (counts hit/miss)."""
        self._validate()
        plan = self._lru.get(shape)
        if plan is None:
            self.misses += 1
            return None
        self._lru.move_to_end(shape)
        self.hits += 1
        return plan

    def put(self, shape: RequestShape, plan: SortPlan) -> None:
        """Memoise ``plan`` under ``shape``, evicting the LRU entry."""
        self._validate()
        self._lru[shape] = plan
        self._lru.move_to_end(shape)
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every cached plan and reset the hit/miss counters."""
        self._lru.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)


class Planner:
    """Auto engine/device selection over the registered engines' cost models.

    Parameters
    ----------
    max_devices:
        Largest cluster the planner may pick for cluster-aware engines
        and batch placement.
    cache_size:
        Plan-cache capacity (plans per distinct request shape).  The
        default holds every size of a scenario trace (``diurnal`` has
        382 distinct sizes): an LRU smaller than a replay's sizes misses
        on every lookup when the trace is replayed again.
    """

    def __init__(self, *, max_devices: int = 4, cache_size: int = 1024):
        if max_devices < 1:
            raise EngineError("planner needs max_devices >= 1")
        self.max_devices = max_devices
        self.cache = PlanCache(cache_size)

    # -- single requests -----------------------------------------------------

    def plan(self, request: SortRequest) -> SortPlan:
        """The cheapest feasible plan for ``request`` (cached by shape)."""
        shape = request_shape(request)
        cached = self.cache.get(shape)
        if cached is not None:
            return cached
        candidates = self._score(request, shape)
        if not candidates:
            raise EngineError(
                f"no registered engine with a cost model can serve "
                f"{shape.describe()}; register one or dispatch by name"
            )
        best = min(
            candidates, key=lambda c: (c.cost_ms, c.engine, c.devices or 0)
        )
        plan = SortPlan(
            shape=shape,
            engine=best.engine,
            devices=best.devices,
            estimate=best.estimate,
            candidates=tuple(sorted(candidates, key=lambda c: c.cost_ms)),
        )
        self.cache.put(shape, plan)
        return plan

    def _score(
        self, request: SortRequest, shape: RequestShape
    ) -> list[PlanCandidate]:
        """Every feasible (engine, devices) candidate, scored."""
        candidates: list[PlanCandidate] = []
        for name in registry.available(require=shape.require):
            engine = registry.get(name)
            model = engine.cost_model
            if model is None or not engine.capabilities.accepts(shape.n):
                continue  # unplannable (dispatch by name) or infeasible
            for devices in model.device_counts(
                request, max_devices=self.max_devices
            ):
                if (
                    devices is not None
                    and devices > self.max_devices
                    and devices != request.devices
                ):
                    continue  # clamp planner-enumerated counts, never the
                    # caller's own explicit devices= override
                estimate = model.estimate(request, devices=devices)
                candidates.append(PlanCandidate(name, devices, estimate))
        return candidates

    # -- batches -------------------------------------------------------------

    def plan_batch(
        self, requests: list[SortRequest], *, max_devices: int | None = None
    ) -> BatchPlan:
        """Choose a cluster size for a batch and LPT-place it there.

        Each request is planned, and its plan's predicted cost is its
        task weight; for every cluster size up to ``max_devices``, the
        weights are LPT-placed and the batch makespan approximated by the
        heaviest device load.  The smallest cluster within
        :data:`BATCH_TOLERANCE` of the best makespan wins.  This is the
        question ``sort_batch(devices="auto")`` and ``plan --batch`` ask;
        a fixed pool is filled by :func:`~repro.cluster.scheduler.lpt`
        alone.
        """
        from repro.cluster.scheduler import lpt

        if not requests:
            raise EngineError("cannot plan an empty batch")
        limit = min(max_devices or self.max_devices, len(requests))
        weights = [self.plan(r).cost_ms for r in requests]

        candidates: list[tuple[int, list[int], float]] = []
        for devices in range(1, max(limit, 1) + 1):
            assignment, loads = lpt(weights, range(devices))
            candidates.append((devices, assignment, max(loads.values())))
        best_makespan = min(makespan for _d, _a, makespan in candidates)
        # Smallest cluster within tolerance of the best: candidates are in
        # increasing device order, so the first qualifying one wins.
        chosen = next(
            c
            for c in candidates
            if c[2] <= best_makespan * (1 + BATCH_TOLERANCE)
        )
        return BatchPlan(
            devices=chosen[0],
            assignment=tuple(chosen[1]),
            predicted_makespan_ms=chosen[2],
        )


#: The process-wide planners, one per device cap (created on first use).
_PLANNERS: dict[int, Planner] = {}


def default_planner(max_devices: int = 4) -> Planner:
    """The shared planner for ``max_devices``: ``engine="auto"`` plans with
    the default cap, the service and the fleet with ``1`` (one modeled
    device per worker or pool slot).  Every caller with the same cap
    shares one plan cache, which the registry generation invalidates."""
    planner = _PLANNERS.get(max_devices)
    if planner is None:
        planner = _PLANNERS[max_devices] = Planner(max_devices=max_devices)
    return planner
