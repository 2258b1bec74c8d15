"""The request event log, its spans and the Chrome trace-event export."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import EventLog, RequestEvent, Span


def _one_span(event: RequestEvent) -> tuple[Span, ...]:
    """Render each event as one span named after its kind."""
    return (Span(event.kind, "sort", event.start_ms, event.t_ms - event.start_ms,
                 args=event.detail),)


class _CountingRender:
    """A render function that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, event):
        self.calls += 1
        return _one_span(event)


def _event(kind: str, t_ms: float = 1.0, **detail) -> RequestEvent:
    return RequestEvent(t_ms, kind, 0, 0, 0.0, tuple(sorted(detail.items())))


class TestEventLog:
    def test_spans_keep_event_order_and_detail(self):
        log = EventLog(_one_span)
        log.append(_event("req0", 3.0))
        log.append(_event("batch0", 5.0, size=3, engine="abisort"))
        spans = log.spans()
        assert [s.name for s in spans] == ["req0", "batch0"]
        assert spans[0].duration_ms == 3.0
        assert dict(spans[1].args) == {"size": 3, "engine": "abisort"}

    def test_capacity_counts_events_and_drops_oldest_first(self):
        log = EventLog(lambda event: _one_span(event) * 2, capacity=3)
        for i in range(5):
            log.append(_event(f"e{i}"))
        assert [e.kind for e in log.events()] == ["e2", "e3", "e4"]
        assert len(log) == 6
        assert [s.name for s in log.spans()] == [
            "e2", "e2", "e3", "e3", "e4", "e4",
        ]

    def test_unbounded_log_keeps_every_event(self):
        log = EventLog(_one_span, capacity=None)
        for i in range(10_000):
            log.append(_event("e", float(i)))
        assert len(log.events()) == 10_000

    def test_nothing_is_built_before_export(self, tmp_path):
        render = _CountingRender()
        log = EventLog(render, capacity=4)
        for i in range(6):
            log.append(_event(f"e{i}"))
        assert render.calls == 0
        assert [e.kind for e in log.events()] == ["e2", "e3", "e4", "e5"]
        assert render.calls == 0
        log.to_chrome()
        assert render.calls == 4
        log.save(tmp_path / "trace.json")
        assert render.calls == 8

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObsError):
            EventLog(_one_span, capacity=0)

    def test_clear(self):
        log = EventLog(_one_span)
        log.append(_event("e"))
        log.clear()
        assert log.events() == []
        assert log.spans() == []
        assert len(log) == 0


class TestChromeExport:
    def test_complete_event_shape_scales_ms_to_us(self):
        span = Span(
            "batch0/req1", "upload", 2.5, 0.25,
            pid="devices", tid="dev0", args=(("bytes", 1024),),
        )
        event = span.to_chrome()
        assert event == {
            "name": "batch0/req1",
            "cat": "upload",
            "ph": "X",
            "ts": 2500.0,
            "dur": 250.0,
            "pid": "devices",
            "tid": "dev0",
            "args": {"bytes": 1024},
        }

    def test_to_chrome_and_save_round_trip(self, tmp_path):
        log = EventLog(_one_span)
        log.append(_event("a"))
        log.append(_event("b", 3.0))
        doc = log.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        assert [e["name"] for e in doc["traceEvents"]] == ["a", "b"]
        path = log.save(tmp_path / "trace.json")
        assert json.loads(path.read_text()) == doc
