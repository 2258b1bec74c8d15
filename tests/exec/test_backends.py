"""The execution-tier surface: the tier rule, backends, and the composite order."""

from __future__ import annotations

import numpy as np

import repro
from repro.engines.base import SortRequest
from repro.exec import resolve_request_tier
from repro.exec.vectorized import composite_keys
from repro.planner.planner import Planner
from repro.stream.stream import VALUE_DTYPE


def _values(keys, ids):
    out = np.empty(len(keys), dtype=VALUE_DTYPE)
    out["key"] = np.asarray(keys, dtype=np.float32)
    out["id"] = np.asarray(ids, dtype=np.uint32)
    return out


class TestTierResolution:
    def test_default_is_vectorized(self):
        keys = np.zeros(4, dtype=np.float32)
        assert resolve_request_tier(SortRequest(keys=keys)) == "vectorized"
        assert resolve_request_tier(SortRequest(keys=keys, trace=True)) == (
            "reference"
        )


class TestCompositeOrder:
    def test_matches_reference_order_on_hostile_keys(self):
        keys = np.array(
            [
                -np.inf,
                np.inf,
                -0.0,
                0.0,
                1e-45,  # smallest denormal
                -1e-45,
                np.float32(np.finfo(np.float32).tiny),
                -np.float32(np.finfo(np.float32).tiny),
                1.0,
                -1.0,
                np.float32(np.finfo(np.float32).max),
            ],
            dtype=np.float32,
        )
        values = _values(keys, np.arange(len(keys)))
        composite = composite_keys(values)
        reference = np.lexsort((values["id"], values["key"]))
        assert np.array_equal(np.argsort(composite, kind="stable"), reference)

    def test_zero_signs_tie_break_by_id(self):
        values = _values([0.0, -0.0, -0.0, 0.0], [3, 0, 2, 1])
        composite = composite_keys(values)
        # -0.0 == +0.0 in the reference order: ids alone decide.
        assert list(np.argsort(composite, kind="stable")) == [1, 3, 2, 0]


class TestPlannedTier:
    def test_planner_defaults_to_vectorized(self, rng):
        plan = Planner().plan(
            SortRequest(keys=rng.random(256, dtype=np.float32))
        )
        assert plan.exec_tier == "vectorized"

    def test_trace_selects_reference(self, rng):
        plan = Planner().plan(
            SortRequest(keys=rng.random(256, dtype=np.float32), trace=True)
        )
        assert plan.exec_tier == "reference"

    def test_explain_names_the_tier(self, rng):
        text = Planner().plan(
            SortRequest(keys=rng.random(256, dtype=np.float32))
        ).explain()
        assert "vectorized execution tier" in text

    def test_auto_sort_carries_the_planned_tier(self, rng):
        result = repro.sort(
            SortRequest(keys=rng.random(256, dtype=np.float32))
        )
        assert result.plan is not None
        assert result.plan.exec_tier == "vectorized"

