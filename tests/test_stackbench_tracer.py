"""The stackbench layer tracer still finds the boundaries it wraps.

``stackbench/tracer.py`` patches module and class attributes of the stack
by name (``--trace 1``).  A refactor that renames or stops calling one of
them breaks the traced benchmark; this guard fails locally instead: after
``install()`` every stream-engine family must charge exec calls, and
``uninstall()`` must restore every patched attribute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from stackbench.tracer import LayerTracer  # noqa: E402

ENGINES = ("abisort", "sharded-abisort", "external", "bitonic-network")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.fixture
def tracer():
    tracer = LayerTracer().install()
    yield tracer
    tracer.uninstall()


@pytest.mark.parametrize("engine", ENGINES)
def test_sort_charges_exec_calls(tracer, engine):
    n = 1024 if engine == "bitonic-network" else 1000
    keys = np.random.default_rng(5).random(n, dtype=np.float32)
    # Measure a memo hit: it runs no stream kernel, so its exec calls are
    # the wrapped memo entry points and merges alone.
    repro.sort(repro.SortRequest(keys=keys), engine=engine)
    before = tracer.totals()[1]
    result = repro.sort(repro.SortRequest(keys=keys), engine=engine)
    calls = tracer.totals()[1]
    assert np.array_equal(result.values["id"], np.argsort(keys, kind="stable"))
    assert calls.get("exec", 0) - before.get("exec", 0) > 0
    assert calls.get("engines", 0) - before.get("engines", 0) > 0


def test_uninstall_restores_every_patched_attribute():
    tracer = LayerTracer().install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)


def test_store_cycle_charges_planner_and_cluster_calls(tracer, tmp_path):
    from repro.store import SortedStore

    def grew(step, layer):
        before = tracer.totals()[1].get(layer, 0)
        result = step()
        return result, tracer.totals()[1].get(layer, 0) - before

    rng = np.random.default_rng(7)
    store = SortedStore(tmp_path, engine="cpu-std")
    for _ in range(3):
        store.insert(rng.random(300, dtype=np.float32))
    # Both queries merge their slices through repro.store.store's merge.
    assert grew(lambda: store.range(0.25, 0.5), "cluster")[1] == 1
    assert grew(lambda: store.top_k(10), "cluster")[1] == 1
    # Planning is store.plan_compaction plus one estimate per candidate.
    plan, planner_calls = grew(store.compaction_plan, "planner")
    assert planner_calls == 1 + len(plan.candidates)
    # compact() plans the same way and merges through repro.store.compaction.
    report, planner_calls = grew(store.compact, "planner")
    assert planner_calls > len(plan.candidates)
    assert report.runs_after == 1
    store.insert(rng.random(300, dtype=np.float32))
    report, cluster_calls = grew(lambda: store.compact(fan_in=2, devices=1), "cluster")
    assert cluster_calls == report.passes == 1
