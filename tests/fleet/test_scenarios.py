"""Committed scenario traces and golden per-tenant statistics.

The NDJSON traces under ``tests/fleet/traces/`` and the golden reports
under ``tests/fleet/goldens/`` are committed artifacts: the traces must
be bit-identical to what ``scenario_trace`` regenerates (record/replay
round trip), and replaying them must reproduce the golden per-tenant
stats exactly (virtual time: no tolerance needed).  ``goldens/spans.json``
pins each replay's Chrome trace (job spans on their pool-slot tracks) by
sha256, per scenario and policy, and ``goldens/metrics.json`` pins the
NDJSON metrics file a :class:`FleetObserver` samples during each replay
the same way.

Regenerate after an intentional scheduler/trace change with::

    PYTHONPATH=src python tests/fleet/test_scenarios.py regen
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.fleet import (
    POLICIES,
    Autoscaler,
    FleetObserver,
    FleetScheduler,
    Trace,
    compare_policies,
)
from repro.workloads.traces import SCENARIOS, scenario_trace

HERE = Path(__file__).parent
TRACE_DIR = HERE / "traces"
GOLDEN_DIR = HERE / "goldens"
SPANS_GOLDEN = GOLDEN_DIR / "spans.json"
METRICS_GOLDEN = GOLDEN_DIR / "metrics.json"

#: The committed artifacts' generation seed.
SEED = 0

#: Per-scenario replay parameters the goldens were produced with.
REPLAY_PARAMS = {
    "burst": {"devices": 4, "queue_bound": 64},
    "diurnal": {
        "devices": 2,
        "queue_bound": 64,
        "autoscaler": Autoscaler(min_devices=1, max_devices=6, tick_ms=50.0),
    },
    "flood": {"devices": 4, "queue_bound": 32},
}


def _golden_reports(name: str) -> dict:
    trace = Trace.load(TRACE_DIR / f"{name}.ndjson")
    reports = compare_policies(trace, **REPLAY_PARAMS[name])
    return {policy: report.to_json() for policy, report in reports.items()}


def _span_digests(name: str) -> dict:
    """sha256 of each policy's observed Chrome trace for scenario ``name``."""
    trace = Trace.load(TRACE_DIR / f"{name}.ndjson")
    digests = {}
    for policy in sorted(POLICIES):
        observer = FleetObserver()
        FleetScheduler(
            trace, policy, observer=observer, **REPLAY_PARAMS[name]
        ).run()
        chrome = json.dumps(observer.spans.to_chrome(), sort_keys=True)
        digests[policy] = hashlib.sha256(chrome.encode()).hexdigest()
    return digests


def _metrics_digests(name: str) -> dict:
    """sha256 of each policy's sampled metrics NDJSON for scenario ``name``."""
    trace = Trace.load(TRACE_DIR / f"{name}.ndjson")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for policy in sorted(POLICIES):
            path = Path(tmp) / f"{policy}.ndjson"
            observer = FleetObserver(metrics_path=path)
            FleetScheduler(
                trace, policy, observer=observer, **REPLAY_PARAMS[name]
            ).run()
            digests[policy] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestCommittedTraces:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_trace_matches_regenerated_scenario(self, name, tmp_path):
        committed = TRACE_DIR / f"{name}.ndjson"
        regenerated = tmp_path / f"{name}.ndjson"
        scenario_trace(name, seed=SEED).save(regenerated)
        assert committed.read_bytes() == regenerated.read_bytes()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_trace_loads_and_validates(self, name):
        trace = Trace.load(TRACE_DIR / f"{name}.ndjson")
        assert trace.name == name
        assert trace.seed == SEED
        assert len(trace) > 0


class TestGoldenStats:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_reproduces_goldens(self, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert _golden_reports(name) == golden

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_span_tracks_match_digests(self, name):
        golden = json.loads(SPANS_GOLDEN.read_text())
        assert _span_digests(name) == golden[name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_metrics_ndjson_matches_digests(self, name):
        golden = json.loads(METRICS_GOLDEN.read_text())
        assert _metrics_digests(name) == golden[name]

    def test_replay_is_deterministic_across_runs(self):
        trace = Trace.load(TRACE_DIR / "burst.ndjson")
        params = REPLAY_PARAMS["burst"]
        one = FleetScheduler(trace, "weighted-fair", **params).run()
        two = FleetScheduler(trace, "weighted-fair", **params).run()
        assert one.to_json() == two.to_json()


class TestScenarioShape:
    def test_flood_evicts_and_quota_caps_the_bully(self):
        golden = json.loads((GOLDEN_DIR / "flood.json").read_text())
        wfs = golden["weighted-fair"]
        bully = next(t for t in wfs["tenants"] if t["name"] == "bully")
        others = [t for t in wfs["tenants"] if t["name"] != "bully"]
        assert bully["evicted"] > 0
        assert all(t["evicted"] == 0 for t in others)
        assert all(
            t["mean_slowdown"] < bully["mean_slowdown"] for t in others
        )

    def test_burst_wfs_protects_low_priority_p99(self):
        golden = json.loads((GOLDEN_DIR / "burst.json").read_text())

        def background_p99(policy):
            tenants = golden[policy]["tenants"]
            return next(
                t["p99_wait_ms"] for t in tenants if t["name"] == "background"
            )

        assert background_p99("weighted-fair") < background_p99(
            "fifo-priority"
        )
        assert golden["weighted-fair"]["fairness"] >= 0.9

    def test_diurnal_autoscaler_breathes(self):
        golden = json.loads((GOLDEN_DIR / "diurnal.json").read_text())
        for report in golden.values():
            assert report["pool_min"] < report["pool_max"]
            assert report["completed"] + report["evicted"] == (
                report["submitted"]
            )


def _regen() -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        scenario_trace(name, seed=SEED).save(TRACE_DIR / f"{name}.ndjson")
        payload = json.dumps(_golden_reports(name), indent=2, sort_keys=True)
        (GOLDEN_DIR / f"{name}.json").write_text(payload + "\n")
        print(f"regenerated {name}")
    spans = {name: _span_digests(name) for name in sorted(SCENARIOS)}
    SPANS_GOLDEN.write_text(json.dumps(spans, indent=2, sort_keys=True) + "\n")
    print("regenerated span digests")
    metrics = {name: _metrics_digests(name) for name in sorted(SCENARIOS)}
    METRICS_GOLDEN.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )
    print("regenerated metrics digests")


if __name__ == "__main__":
    if sys.argv[1:] == ["regen"]:
        _regen()
    else:
        print(__doc__)
