"""Request events, trace spans and the Chrome trace-event export.

A face records each request's life once, as :class:`RequestEvent` tuples
appended to an :class:`EventLog` ring as they happen.  A :class:`Span`
is one timed interval on one track (a request waiting in the queue, an
upload/sort/download stage on a device, a fleet job's execution on a
pool slot); spans are built from the log only when a trace is exported,
as Chrome trace-event JSON (the ``chrome://tracing`` / Perfetto
"complete event" format: one ``"ph": "X"`` record per span).

This is the paper's own evaluation method made continuous: Section 7
measures upload/sort/download overlap per stage; a span trace is the
same decomposition for every request a running service handles.

Timestamps are plain milliseconds on whatever clock the instrumenting
layer uses -- wall milliseconds since service start for the live
service, virtual milliseconds for fleet replays (which is what makes
fleet traces bit-reproducible).  The log never reads a clock itself.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro.errors import ObsError

__all__ = ["EventLog", "RequestEvent", "Span"]


@dataclass(frozen=True)
class Span:
    """One timed interval on one track.

    ``pid`` groups tracks (a batch, a tenant); ``tid`` is the track
    within the group (a request, a device slot); ``cat`` is the span
    category trace viewers filter by (``queue`` / ``coalesce`` /
    ``upload`` / ``sort`` / ``download`` / ``run`` ...); ``args`` carries
    span-specific detail (engine, sizes, outcomes).
    """

    name: str
    cat: str
    start_ms: float
    duration_ms: float
    pid: str = "repro"
    tid: str = "0"
    args: tuple[tuple[str, object], ...] = ()

    def to_chrome(self) -> dict:
        """The span as one Chrome trace-event record (``ph: "X"``).

        Chrome traces count in microseconds; milliseconds scale by 1e3.
        """
        record = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": round(self.start_ms * 1e3, 3),
            "dur": round(self.duration_ms * 1e3, 3),
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            record["args"] = dict(self.args)
        return record


class RequestEvent(NamedTuple):
    """One step of a request's life, as the face that served it saw it.

    ``t_ms`` is the face's clock when it happened; ``kind`` names it
    (``complete``, ``preempt``, ``evict``, ``batch`` ...); ``index`` is
    the request and ``slot`` the device or pool slot it ran on (``None``
    for none); ``start_ms`` the start of the interval the event closes;
    ``detail`` a few face-specific scalars (a tenant, a size, a wait --
    for a service batch, its modeled stage schedule), never a ticket, a
    result or an array.
    """

    t_ms: float
    kind: str
    index: int | None
    slot: int | None
    start_ms: float
    detail: tuple = ()


class EventLog:
    """An append-only ring of :class:`RequestEvent` s; spans on export.

    ``capacity`` counts events (the oldest drops first; ``None`` keeps
    every event, for a finite replay).  Recording is one
    :meth:`append`: no :class:`Span` exists until :meth:`spans`,
    :meth:`to_chrome`, :meth:`save` or ``len()`` asks, and then
    ``render`` -- the owning observer's function from one event to the
    spans it stands for -- builds them from the retained events.
    """

    def __init__(
        self,
        render: Callable[[RequestEvent], Iterable[Span]],
        capacity: int | None = 4096,
    ):
        if capacity is not None and capacity < 1:
            raise ObsError(f"event log needs capacity >= 1, got {capacity}")
        self._render = render
        self._events: deque[RequestEvent] = deque(maxlen=capacity)
        #: Record one event (dropping the oldest when the ring is full).
        self.append = self._events.append

    def events(self) -> list[RequestEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Drop every retained event."""
        self._events.clear()

    def spans(self, events: Iterable[RequestEvent] | None = None) -> list[Span]:
        """``events`` (default: the retained ones) rendered as spans."""
        events = self._events if events is None else events
        return [span for event in events for span in self._render(event)]

    def __len__(self) -> int:
        """How many spans an export of the retained events holds."""
        return len(self.spans())

    def to_chrome(self, events: Iterable[RequestEvent] | None = None) -> dict:
        """The rendered spans as a Chrome trace-event JSON object.

        ``events`` defaults to the retained ones; a copy taken by
        :meth:`events` can be rendered on another thread than the one
        appending.
        """
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [span.to_chrome() for span in self.spans(events)],
        }

    def save(self, path) -> Path:
        """Write :meth:`to_chrome` as JSON to ``path`` and return it."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=2) + "\n")
        return path
