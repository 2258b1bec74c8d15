"""E24 -- planner pick vs. brute-force minimum modeled cost.

The acceptance bar of the planner layer: on a grid of request shapes
(n across octaves, values vs. key-value form, both paper GPUs, 1-4
devices), serving the planner's chosen (engine, devices) pair must cost
-- in *measured* modeled milliseconds, :func:`repro.engines.measured_cost_ms`
-- within 5% of the brute-force minimum over every feasible pair.  In
other words: trusting the calibrated cost models instead of running
everything loses at most 5% modeled time, while running one engine
instead of ~17 (engine, devices) combinations.

Brute force prunes candidates whose *predicted* cost exceeds 10x the best
prediction (the O(n^2) transition sort and the disk-bound external
pipeline, at most sizes): with model error two orders of magnitude below
the prune factor, nothing prunable can hold the true minimum.  Every
pruned pair is reported in the emitted JSON -- no silent caps.

Default grid: n in 2^8..2^14 (calibration anchors reach 2^12, so the top
octaves genuinely exercise extrapolated cost curves).
``REPRO_FULL_TABLES=1`` extends to 2^16.
"""

from __future__ import annotations

import os

import repro
from repro.engines import measured_cost_ms
from repro.engines.registry import available, get
from repro.stream.gpu_model import (
    AGP_SYSTEM,
    GEFORCE_6800_ULTRA,
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
)
from repro.workloads.generators import generate_keys
from repro.workloads.rng import seeded_rng

MAX_DEVICES = 4
PRUNE_FACTOR = 10.0
TOLERANCE = 0.05

SYSTEMS = (
    ("Table 2", GEFORCE_6800_ULTRA, AGP_SYSTEM),
    ("Table 3", GEFORCE_7800_GTX, PCIE_SYSTEM),
)


def _grid_exponents() -> tuple[int, ...]:
    if os.environ.get("REPRO_FULL_TABLES") == "1":
        return (8, 10, 12, 13, 14, 15, 16)
    return (8, 10, 12, 13, 14)


def _request(n: int, key_value: bool, gpu, host) -> repro.SortRequest:
    keys = generate_keys("uniform", n, seed=7)
    if key_value:
        ids = seeded_rng(7).permutation(n).astype("uint32")
        return repro.SortRequest(keys=keys, ids=ids, gpu=gpu, host=host)
    return repro.SortRequest(keys=keys, gpu=gpu, host=host)


def _brute_force(request) -> tuple[dict, list]:
    """Measured cost of every feasible (engine, devices) pair (pruned by
    predicted cost; see module docstring).  Returns (measured, pruned)."""
    n = len(request.keys)
    candidates: list[tuple[str, int | None, float]] = []
    for name in available():
        engine = get(name)
        model = engine.cost_model
        if model is None or not engine.capabilities.accepts(n):
            continue
        for devices in model.device_counts(request, max_devices=MAX_DEVICES):
            predicted = model.estimate(request, devices=devices).cost_ms
            candidates.append((name, devices, predicted))

    best_predicted = min(c[2] for c in candidates)
    measured: dict[tuple[str, int | None], float] = {}
    pruned: list[tuple[str, int | None, float]] = []
    for name, devices, predicted in candidates:
        if predicted > PRUNE_FACTOR * max(best_predicted, 1e-9):
            pruned.append((name, devices, predicted))
            continue
        result = repro.sort(request, engine=name, devices=devices)
        measured[(name, devices)] = measured_cost_ms(result, request)
    return measured, pruned


def test_planner_within_tolerance_of_brute_force(benchmark, bench_json):
    def compute():
        rows = []
        for label, gpu, host in SYSTEMS:
            for exponent in _grid_exponents():
                for key_value in (False, True):
                    request = _request(1 << exponent, key_value, gpu, host)
                    plan = repro.plan(request)
                    measured, pruned = _brute_force(request)
                    best_pair = min(measured, key=measured.get)
                    best = measured[best_pair]
                    pick = measured[(plan.engine, plan.devices)]
                    rows.append({
                        "system": label,
                        "n": 1 << exponent,
                        "key_value": key_value,
                        "pick": [plan.engine, plan.devices],
                        "predicted_ms": plan.cost_ms,
                        "pick_measured_ms": pick,
                        "best": list(best_pair),
                        "best_measured_ms": best,
                        "gap": pick / best - 1.0,
                        "pruned": pruned,
                    })
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    bench_json(rows=rows, tolerance=TOLERANCE, prune_factor=PRUNE_FACTOR)

    print("\nplanner pick vs brute-force minimum (measured modeled ms):")
    print(f"  {'system':>8} {'n':>8} {'kv':>3}  {'pick':>22}  "
          f"{'measured':>9}  {'best':>22}  {'gap':>6}")
    for row in rows:
        pick = f"{row['pick'][0]}/{row['pick'][1] or 1}"
        best = f"{row['best'][0]}/{row['best'][1] or 1}"
        print(f"  {row['system']:>8} {row['n']:>8} "
              f"{'kv' if row['key_value'] else '-':>3}  {pick:>22}  "
              f"{row['pick_measured_ms']:>7.3f}ms  {best:>22}  "
              f"{row['gap'] * 100:>5.1f}%")

    worst = max(rows, key=lambda r: r["gap"])
    print(f"  worst gap: {worst['gap'] * 100:.2f}% "
          f"(n={worst['n']}, {worst['system']})")
    for row in rows:
        assert row["gap"] <= TOLERANCE, (
            f"planner pick {row['pick']} measured "
            f"{row['pick_measured_ms']:.3f} ms, brute-force best "
            f"{row['best']} {row['best_measured_ms']:.3f} ms "
            f"(gap {row['gap'] * 100:.1f}%) at n={row['n']} {row['system']}"
        )
