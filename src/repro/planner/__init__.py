"""The planner layer: cost-model-driven engine and device selection.

The paper's whole argument is a cost model -- counted stream operations,
modeled bus transfers, and modeled GPU milliseconds decide which sorter
wins at which n (Tables 2/3, Section 7).  This package turns that
argument into the dispatch policy: instead of the caller naming one of
the registered backends, ``engine="auto"`` (the default) builds a
:class:`SortPlan` from calibrated per-engine cost models and executes it.

* :mod:`repro.planner.calibration` -- probe-based calibration of the
  stream engines' ``n -> modeled ms`` cost curves;
* :mod:`repro.planner.models` -- the built-in
  :class:`~repro.engines.cost.CostModel` per backend family, plus the
  :class:`CompactionCostModel` that prices ``repro.store`` compactions
  and :func:`plan_compaction` which picks their (fan-in, devices);
* :mod:`repro.planner.planner` -- the :class:`Planner` (enumerate ->
  score -> pick), the shape-keyed LRU :class:`PlanCache`, batch (LPT)
  placement, and :func:`default_planner`, the one shared planner per
  device cap that every caller in the process plans through.

Cost of the first plan: scoring a non-trivial shape calibrates every
feasible stream engine's cost curve (a dozen probe sorts each, largest
2^12), roughly a second or two per (GPU, mapping) pair per process.
That is a deliberate trade: each stream engine's cost model keeps its
curves and the planner caches plans, so a long-lived service pays it once and every later request plans from the
caches in microseconds; one-shot scripts that cannot afford it can name
an engine explicitly and skip planning entirely.

Quick use::

    import numpy as np
    import repro

    req = repro.SortRequest(keys=np.random.default_rng(0)
                            .random(100_000, dtype=np.float32))
    print(repro.plan(req).explain())   # what would run, and why
    res = repro.sort(req)              # plan -> execute (engine="auto")
    res.engine, res.plan.cost_ms       # who ran, at what predicted cost
"""

from repro.planner.calibration import CostCurve, calibrate_stream_engine
from repro.planner.models import (
    CompactionCandidate,
    CompactionCostModel,
    CompactionPlan,
    plan_compaction,
)
from repro.planner.planner import (
    BatchPlan,
    PlanCache,
    PlanCandidate,
    Planner,
    SortPlan,
    default_planner,
)

__all__ = [
    "Planner",
    "SortPlan",
    "PlanCandidate",
    "BatchPlan",
    "PlanCache",
    "default_planner",
    "CostCurve",
    "calibrate_stream_engine",
    "CompactionCostModel",
    "CompactionCandidate",
    "CompactionPlan",
    "plan_compaction",
]
