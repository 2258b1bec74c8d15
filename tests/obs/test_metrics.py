"""The metrics registry: exposition, round-trip parsing, and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs import (
    DEFAULT_MS_BUCKETS,
    MetricsRegistry,
    escape_label_value,
    parse_exposition,
)


class TestRegistry:
    def test_counter_and_gauge_expose_and_read_back(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_requests_total", "Requests seen")
        g = reg.gauge("repro_queue_depth", "Queue depth")
        c.inc()
        c.inc(2.5)
        g.set(7)
        g.inc(-3)
        text = reg.expose()
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        parsed = parse_exposition(text)
        assert parsed["repro_requests_total"].samples[
            ("repro_requests_total", ())
        ] == 3.5
        assert parsed["repro_queue_depth"].samples[
            ("repro_queue_depth", ())
        ] == 4.0

    def test_labelled_counter_children_are_cached(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_jobs_total", "Jobs", ("tenant",))
        child = c.labels(tenant="batch")
        assert c.labels(tenant="batch") is child
        child.inc(4)
        c.labels(tenant="interactive").inc()
        parsed = parse_exposition(reg.expose())
        samples = parsed["repro_jobs_total"].samples
        assert samples[("repro_jobs_total", (("tenant", "batch"),))] == 4.0
        assert samples[
            ("repro_jobs_total", (("tenant", "interactive"),))
        ] == 1.0

    def test_callback_metric_reads_source_of_truth_at_scrape_time(self):
        state = {"pending": 0}
        reg = MetricsRegistry()
        reg.gauge("repro_pending", "Live pending", fn=lambda: state["pending"])
        state["pending"] = 11
        parsed = parse_exposition(reg.expose())
        assert parsed["repro_pending"].samples[("repro_pending", ())] == 11.0

    def test_registry_errors(self):
        reg = MetricsRegistry()
        reg.counter("repro_dup_total", "dup")
        with pytest.raises(ObsError):
            reg.counter("repro_dup_total", "again")
        with pytest.raises(ObsError):
            reg.counter("0bad", "bad name")
        with pytest.raises(ObsError):
            reg.counter("repro_bad_label_total", "bad", ("0label",))
        with pytest.raises(ObsError):
            reg.counter("repro_cb_total", "cb", ("a",), fn=lambda: 0)
        with pytest.raises(ObsError):
            reg.counter("repro_down_total", "down").inc(-1)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.histogram("repro_h1_ms", "empty", buckets=())
        with pytest.raises(ObsError):
            reg.histogram("repro_h2_ms", "inf", buckets=(1.0, math.inf))
        with pytest.raises(ObsError):
            reg.histogram("repro_h3_ms", "dup", buckets=(1.0, 1.0))


class TestLabelEscaping:
    @pytest.mark.parametrize(
        "value",
        [
            'say "hi"',
            "back\\slash",
            "line\nbreak",
            '\\"mixed\\"\n',
            "",
            "plain",
        ],
    )
    def test_escaped_values_round_trip_through_exposition(self, value):
        reg = MetricsRegistry()
        reg.counter("repro_esc_total", "esc", ("path",)).labels(
            path=value
        ).inc()
        parsed = parse_exposition(reg.expose())
        assert parsed["repro_esc_total"].samples[
            ("repro_esc_total", (("path", value),))
        ] == 1.0

    def test_escape_label_value_forms(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_help_text_with_newline_survives(self):
        reg = MetricsRegistry()
        reg.gauge("repro_help", "line one\nline two")
        parsed = parse_exposition(reg.expose())
        assert parsed["repro_help"].help == "line one\nline two"

    def test_malformed_lines_raise(self):
        with pytest.raises(ObsError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(ObsError):
            parse_exposition('repro_x{bad-label="1"} 2')


class TestHistogramExposition:
    def test_cumulative_buckets_and_suffixes(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "repro_wait_ms", "Waits", buckets=(1.0, 10.0, 100.0)
        )
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        parsed = parse_exposition(reg.expose())
        samples = parse_histogram(parsed["repro_wait_ms"].samples)
        assert samples["buckets"] == [
            ("1", 1.0), ("10", 2.0), ("100", 3.0), ("+Inf", 4.0)
        ]
        assert samples["count"] == 4.0
        assert samples["sum"] == pytest.approx(555.5)

    @given(
        observations=st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e4,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=100,
        )
    )
    def test_property_buckets_are_cumulative_and_bounded(self, observations):
        reg = MetricsRegistry()
        h = reg.histogram("repro_prop_ms", "prop", buckets=DEFAULT_MS_BUCKETS)
        for v in observations:
            h.observe(v)
        parsed = parse_exposition(reg.expose())
        samples = parse_histogram(parsed["repro_prop_ms"].samples)
        counts = [count for _le, count in samples["buckets"]]
        # Cumulative: non-decreasing, ending at the +Inf bucket == _count.
        assert counts == sorted(counts)
        assert counts[-1] == samples["count"] == len(observations)
        # Each finite bucket holds exactly the observations <= its bound.
        for (le, count) in samples["buckets"][:-1]:
            assert count == sum(1 for v in observations if v <= float(le))
        assert samples["sum"] == pytest.approx(sum(observations))


def parse_histogram(samples: dict) -> dict:
    """Split one parsed histogram family into buckets/sum/count."""
    buckets = []
    out = {}
    for (name, labels), value in samples.items():
        if name.endswith("_bucket"):
            buckets.append((dict(labels)["le"], value))
        elif name.endswith("_sum"):
            out["sum"] = value
        elif name.endswith("_count"):
            out["count"] = value
    def le_key(pair):
        return math.inf if pair[0] == "+Inf" else float(pair[0])
    out["buckets"] = sorted(buckets, key=le_key)
    return out
