"""A dependency-free Prometheus-style metrics registry.

Three instrument kinds -- :class:`Counter` (monotonic), :class:`Gauge`
(up/down), :class:`Histogram` (bucketed distribution) -- registered on a
:class:`MetricsRegistry`, optionally split by label values
(``metric.labels(tenant="batch")``).  The registry renders the standard
text exposition format (the ``# HELP`` / ``# TYPE`` / sample-line shape
Prometheus scrapes), and :func:`parse_exposition` parses it back, which
is what the round-trip tests and the acceptance check lean on.

Two value modes keep the hot paths honest:

* **recorded** -- ``counter.inc()`` / ``gauge.set()`` /
  ``histogram.observe()`` mutate a float; the cost on the instrumented
  path is a dictionary-free attribute update (label children are resolved
  once and cached by the instrumenting code).
* **callback** -- a metric constructed with ``fn=`` reads its value from
  the owning component *at collection time* (e.g. the service's live
  ``pending`` count, a store's run count).  The instrumented path pays
  nothing at all, and an exposition is always consistent with the
  source-of-truth counters it mirrors -- the property the acceptance
  criterion ("exposition counters match a simultaneously-taken
  ``ServiceStats.snapshot()``") requires.

Time series come from :meth:`MetricsRegistry.collect`, which flattens
every (metric, labelset) into one :class:`Sample` record;
:mod:`repro.obs.sampler` appends those as NDJSON.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ObsError

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "Sample",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "parse_exposition",
]

#: Default histogram buckets for millisecond quantities: half-decade
#: steps from sub-millisecond coalesce windows up to multi-second waits.
DEFAULT_MS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """Escape a label value for the text format (backslash, quote, LF)."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value`."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:  # unknown escape: keep both characters, as Prometheus does
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only, per the format)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Render one sample value (integers without a trailing ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_body(labels: dict[str, str]) -> str:
    """The ``{name="value",...}`` body ('' when unlabelled)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


@dataclass(frozen=True)
class Sample:
    """One flattened time-series point: name, labels, value.

    ``name`` carries any exposition suffix (``_sum``, ``_count``,
    ``_bucket``); ``labels`` includes the histogram ``le`` bound where
    applicable.  This is both the exposition line and the NDJSON record.
    """

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    def to_json(self) -> dict:
        """JSON-ready form for the NDJSON sampler."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class _Child:
    """One labelled series of a recorded metric: a bare float holder."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (counters must never go down; gauges may)."""
        self.value += amount

    def set(self, value: float) -> None:
        """Set the current value (gauges)."""
        self.value = float(value)


class _HistogramChild:
    """One labelled series of a histogram: bucket counts + sum."""

    __slots__ = ("counts", "total", "count", "_bounds")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._bounds = bounds
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.total += value
        self.count += 1
        # Linear scan beats bisect for the short bucket lists used here,
        # and most observations land in the first few buckets.
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        # Falls through: only the implicit +Inf bucket (count) holds it.


class _Metric:
    """Shared machinery of the three instrument kinds."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        fn: Callable[[], float] | None = None,
    ):
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ObsError(f"invalid label name {label!r} on {name}")
        if fn is not None and labelnames:
            raise ObsError(
                f"metric {name}: callback metrics cannot take labels; "
                f"register one callback per series instead"
            )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._fn = fn
        self._children: dict[tuple[str, ...], object] = {}
        if not labelnames and fn is None:
            self._default = self._new_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _new_child(self):
        return _Child()

    def labels(self, **labelvalues: str):
        """The child series for one label-value assignment (cached)."""
        if set(labelvalues) != set(self.labelnames):
            raise ObsError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _series(self):
        """Yield ``(labels dict, child)`` pairs in insertion order.

        Iterates a snapshot: a service worker thread may add a device's
        child (:meth:`labels`) while the event loop scrapes.
        """
        for key, child in list(self._children.items()):
            yield dict(zip(self.labelnames, key)), child

    def samples(self) -> list[Sample]:
        """Flattened samples of every child series."""
        if self._fn is not None:
            return [Sample(self.name, (), float(self._fn()))]
        return [
            Sample(self.name, tuple(labels.items()), child.value)
            for labels, child in self._series()
        ]

    def expose(self) -> list[str]:
        """The metric's exposition block (HELP, TYPE, sample lines)."""
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for sample in self.samples():
            body = _label_body(dict(sample.labels))
            lines.append(f"{sample.name}{body} {_format_value(sample.value)}")
        return lines


class Counter(_Metric):
    """A monotonically increasing count (requests, rejections, bytes)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series by ``amount`` (default 1)."""
        if self._default is None:
            raise ObsError(
                f"counter {self.name} is labelled or callback-backed; "
                f"use .labels(...) on the instrumenting side"
            )
        if amount < 0:
            raise ObsError(f"counter {self.name} cannot decrease")
        self._default.inc(amount)

    @property
    def value(self) -> float:
        """Current value of the unlabelled series."""
        if self._fn is not None:
            return float(self._fn())
        return self._default.value if self._default else 0.0


class Gauge(_Metric):
    """A value that may go up or down (queue depth, pool size, ratios)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        """Set the unlabelled series to ``value``."""
        if self._default is None:
            raise ObsError(
                f"gauge {self.name} is labelled or callback-backed; "
                f"use .labels(...) on the instrumenting side"
            )
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the unlabelled series (may be negative)."""
        if self._default is None:
            raise ObsError(f"gauge {self.name} is labelled or callback-backed")
        self._default.inc(amount)

    @property
    def value(self) -> float:
        """Current value of the unlabelled series."""
        if self._fn is not None:
            return float(self._fn())
        return self._default.value if self._default else 0.0


class Histogram(_Metric):
    """A bucketed distribution with sum and count.

    Exposition follows the Prometheus histogram convention: cumulative
    ``_bucket`` series with ``le`` bounds (the implicit ``+Inf`` bucket
    equals ``_count``), plus ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_MS_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObsError(f"histogram {name} needs at least one bucket")
        if any(b != b or b == math.inf for b in bounds):
            raise ObsError(
                f"histogram {name}: finite bucket bounds only "
                f"(+Inf is implicit)"
            )
        if len(set(bounds)) != len(bounds):
            raise ObsError(f"histogram {name}: duplicate bucket bounds")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation on the unlabelled series."""
        if self._default is None:
            raise ObsError(
                f"histogram {self.name} is labelled; use .labels(...)"
            )
        self._default.observe(value)

    def samples(self) -> list[Sample]:
        """Cumulative ``_bucket`` series plus ``_sum`` / ``_count``."""
        out: list[Sample] = []
        for labels, child in self._series():
            base = tuple(labels.items())
            running = 0
            for bound, count in zip(self.buckets, child.counts):
                running += count
                out.append(
                    Sample(
                        self.name + "_bucket",
                        base + (("le", _format_value(bound)),),
                        float(running),
                    )
                )
            out.append(
                Sample(
                    self.name + "_bucket",
                    base + (("le", "+Inf"),),
                    float(child.count),
                )
            )
            out.append(Sample(self.name + "_sum", base, child.total))
            out.append(Sample(self.name + "_count", base, float(child.count)))
        return out


class MetricsRegistry:
    """A named collection of metrics with one exposition.

    Each component owns (or is handed) a registry and registers its
    instruments once; :meth:`expose` renders the whole registry in the
    text format, :meth:`collect` flattens it into :class:`Sample` records
    for the NDJSON time-series sampler.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- registration --------------------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        if metric.name in self._metrics:
            raise ObsError(f"metric {metric.name!r} is already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        fn: Callable[[], float] | None = None,
    ) -> Counter:
        """Register a :class:`Counter` (``fn`` makes it callback-backed)."""
        return self._register(Counter(name, help, labelnames, fn))

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        fn: Callable[[], float] | None = None,
    ) -> Gauge:
        """Register a :class:`Gauge` (``fn`` makes it callback-backed)."""
        return self._register(Gauge(name, help, labelnames, fn))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_MS_BUCKETS,
    ) -> Histogram:
        """Register a :class:`Histogram` over ``buckets``."""
        return self._register(Histogram(name, help, labelnames, buckets))

    # -- collection ----------------------------------------------------------

    def get(self, name: str) -> _Metric | None:
        """The registered metric called ``name``."""
        return self._metrics.get(name)

    def collect(self) -> list[Sample]:
        """Every (metric, labelset) flattened to one :class:`Sample`."""
        out: list[Sample] = []
        for metric in self._metrics.values():
            out.extend(metric.samples())
        return out

    def expose(self) -> str:
        """The registry in the text exposition format (trailing newline)."""
        lines: list[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ParsedMetric:
    """One metric family recovered from exposition text."""

    name: str
    kind: str
    help: str
    #: ``{(sample name, ((label, value), ...)): value}`` -- sample names
    #: keep their exposition suffixes (``_sum`` / ``_count`` / ``_bucket``).
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = field(
        default_factory=dict
    )


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> dict[str, ParsedMetric]:
    """Parse text-format exposition back into metric families.

    The tiny round-trip parser the test suite (and the ``metrics`` CLI)
    uses: HELP/TYPE comments open a family, sample lines attach to the
    family whose name prefixes theirs (histogram suffixes included).
    Raises :class:`~repro.errors.ObsError` on malformed lines.
    """
    families: dict[str, ParsedMetric] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            family = families.setdefault(name, ParsedMetric(name, "untyped", ""))
            family.help = (
                help_text.replace(r"\n", "\n").replace("\\\\", "\\")
            )
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            family = families.setdefault(name, ParsedMetric(name, "untyped", ""))
            family.kind = kind.strip()
            continue
        if line.startswith("#"):
            continue  # other comments are legal and ignored
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ObsError(f"malformed exposition line: {raw!r}")
        sample_name = match.group("name")
        labels_text = match.group("labels")
        labels: list[tuple[str, str]] = []
        if labels_text:
            pos = 0
            while pos < len(labels_text):
                pair = _LABEL_PAIR_RE.match(labels_text, pos)
                if not pair:
                    raise ObsError(
                        f"malformed label body in exposition line: {raw!r}"
                    )
                labels.append(
                    (pair.group("name"),
                     _unescape_label_value(pair.group("value")))
                )
                pos = pair.end()
                if pos < len(labels_text):
                    if labels_text[pos] != ",":
                        raise ObsError(
                            f"malformed label body in exposition line: "
                            f"{raw!r}"
                        )
                    pos += 1  # trailing commas are legal in the format
        value = _parse_value(match.group("value"))
        # Attach to the longest family name that prefixes the sample name
        # (histograms expose name_bucket/name_sum/name_count).
        owner = None
        for name in families:
            if sample_name == name or sample_name.startswith(name + "_"):
                if owner is None or len(name) > len(owner):
                    owner = name
        if owner is None:
            owner = sample_name
            families[owner] = ParsedMetric(owner, "untyped", "")
        families[owner].samples[(sample_name, tuple(labels))] = value
    return families
