"""Pool-health analysis and the HTML report, golden-pinned.

The goldens under ``tests/obs/goldens/`` are the health JSON and HTML
report of replaying the committed ``tests/fleet/traces/burst.ndjson``
trace under a :class:`~repro.fleet.FleetObserver` -- everything is
virtual time, so the same replay must produce byte-identical artifacts.

Regenerate after an intentional analyzer/report change with::

    PYTHONPATH=src python tests/obs/test_health_report.py regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.fleet import FleetObserver, FleetScheduler, Trace
from repro.obs import analyze_pool_health, render_health_html

HERE = Path(__file__).parent
GOLDEN_DIR = HERE / "goldens"
BURST_TRACE = HERE.parent / "fleet" / "traces" / "burst.ndjson"

#: Replay parameters the goldens were produced with (burst's fleet ones).
REPLAY_PARAMS = {"devices": 4, "queue_bound": 64}


def _replay_with_observer(metrics_path=None):
    observer = FleetObserver(metrics_path=metrics_path)
    report = FleetScheduler(
        Trace.load(BURST_TRACE),
        "weighted-fair",
        observer=observer,
        **REPLAY_PARAMS,
    ).run()
    return report, observer


def _health():
    report, observer = _replay_with_observer()
    return analyze_pool_health(report, observer=observer)


class TestGoldenHealth:
    def test_health_json_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "burst_health.json").read_text())
        assert _health().to_json() == golden

    def test_html_report_matches_golden(self):
        golden = (GOLDEN_DIR / "burst_health.html").read_text()
        assert render_health_html(_health()) == golden

    def test_analysis_is_deterministic_across_runs(self):
        assert _health().to_json() == _health().to_json()

    def test_metrics_ndjson_is_deterministic(self, tmp_path):
        one, two = tmp_path / "one.ndjson", tmp_path / "two.ndjson"
        _replay_with_observer(metrics_path=one)
        _replay_with_observer(metrics_path=two)
        assert one.read_bytes() == two.read_bytes()


class TestHealthShape:
    def test_pool_accounting_balances(self):
        health = _health()
        assert health.devices == REPLAY_PARAMS["devices"]
        assert len(health.per_device) == health.devices
        assert health.busy_ms == sum(d.busy_ms for d in health.per_device)
        assert health.bubble_ms >= 0
        assert 0 < health.utilization < 1
        assert health.capacity_ms >= health.busy_ms

    def test_wait_trend_covers_every_completion(self):
        report, observer = _replay_with_observer()
        health = analyze_pool_health(report, observer=observer)
        assert sum(w.completions for w in health.wait_trend) == (
            report.completed
        )

    def test_observer_does_not_change_the_replay(self):
        bare = FleetScheduler(
            Trace.load(BURST_TRACE), "weighted-fair", **REPLAY_PARAMS
        ).run()
        observed, _ = _replay_with_observer()
        assert bare.to_json() == observed.to_json()

    def test_spans_cover_completions_and_waits(self):
        report, observer = _replay_with_observer()
        cats = {}
        for span in observer.spans.spans():
            cats[span.cat] = cats.get(span.cat, 0) + 1
        assert cats["run"] == report.completed
        # One wait span per request that actually waited (zero-wait
        # requests would be invisible slivers in a trace viewer).
        waited = sum(
            1 for t, w, _n in observer.completions_series if w > 0
        )
        assert cats["wait"] == waited > 0


class TestEventLog:
    def test_hooks_append_one_event_each_and_build_no_span(self, monkeypatch):
        from repro.fleet import observe
        from repro.obs.trace import Span

        built = []

        class CountedSpan(Span):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(observe, "Span", CountedSpan)
        report, observer = _replay_with_observer()
        kinds = [e.kind for e in observer.spans.events()]
        assert kinds[0] == "begin" and kinds[-1] == "finish"
        assert kinds.count("arrive") == report.submitted
        assert kinds.count("complete") == report.completed
        assert built == []
        assert len(observer.spans) == len(built) > report.completed


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    health = _health()
    (GOLDEN_DIR / "burst_health.json").write_text(
        json.dumps(health.to_json(), indent=2, sort_keys=True) + "\n"
    )
    (GOLDEN_DIR / "burst_health.html").write_text(render_health_html(health))
    print("regenerated burst_health.{json,html}")


if __name__ == "__main__":
    if sys.argv[1:] == ["regen"]:
        _regen()
    else:
        print(__doc__)
