"""Fleet-wide observability: metrics, trace spans, and health reports.

The bottom-most instrumentation layer of the reproduction -- it depends
only on :mod:`repro.errors`, and every other layer instruments itself
with it:

* :mod:`repro.obs.metrics` -- a dependency-free Prometheus-style
  registry (counters, gauges, histograms, labels) with the text
  exposition format and a round-trip parser;
* :mod:`repro.obs.trace` -- the per-request event log, from which
  spans and the Chrome trace-event JSON export are built on export;
* :mod:`repro.obs.sampler` -- periodic NDJSON persistence of metric
  snapshots, with the schema validator CI runs over the files;
* :mod:`repro.obs.health` -- the pool-health analyzer over a fleet
  replay (utilization/bubble per device, wait trends, overload);
* :mod:`repro.obs.report` -- the static HTML rendering of a health
  summary.
"""

from repro.obs.health import (
    DeviceHealth,
    PoolHealth,
    WaitWindow,
    analyze_pool_health,
)
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    escape_label_value,
    parse_exposition,
)
from repro.obs.report import render_health_html, save_health_html
from repro.obs.sampler import MetricsSampler, read_samples, validate_sample_line
from repro.obs.trace import EventLog, RequestEvent, Span

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "Counter",
    "DeviceHealth",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "PoolHealth",
    "RequestEvent",
    "Sample",
    "Span",
    "WaitWindow",
    "analyze_pool_health",
    "escape_label_value",
    "parse_exposition",
    "read_samples",
    "render_health_html",
    "save_health_html",
    "validate_sample_line",
]
