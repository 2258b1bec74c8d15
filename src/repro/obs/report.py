"""Static HTML rendering of a pool-health summary.

:func:`render_health_html` turns one
:class:`~repro.obs.health.PoolHealth` into a single self-contained HTML
page -- inline CSS, inline SVG sparklines, no scripts, no external
assets -- so a fleet replay's health report can be opened straight from
disk or attached to CI artifacts.  The page shows the headline tiles
(utilization, fairness, makespan), a per-device utilization table with
bubble-time bars, the wait-time trend sparkline, per-tenant rollups,
the eviction/overload analysis, and the analyzer's notes.

Rendering is pure string formatting over the already-rounded
:meth:`~repro.obs.health.PoolHealth.to_json` values: the same health
summary always renders to the same bytes, which is what lets the golden
test pin an entire page.
"""

from __future__ import annotations

import html
from pathlib import Path

__all__ = ["render_health_html", "save_health_html"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1b1f24; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: 0.5rem 0; }
th, td { text-align: right; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #d8dee4; font-size: 0.85rem; }
th { background: #f6f8fa; } td:first-child, th:first-child { text-align: left; }
.tiles { display: flex; gap: 0.8rem; flex-wrap: wrap; margin: 1rem 0; }
.tile { border: 1px solid #d8dee4; border-radius: 6px;
        padding: 0.6rem 1rem; min-width: 7rem; }
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { font-size: 0.75rem; color: #57606a; }
.bar { background: #ddf4ff; display: inline-block; height: 0.7rem; }
.note { background: #fff8c5; border: 1px solid #d4a72c55;
        border-radius: 6px; padding: 0.4rem 0.8rem; margin: 0.3rem 0;
        font-size: 0.85rem; }
svg { display: block; }
""".strip()


def _esc(value) -> str:
    return html.escape(str(value))


def _tile(key: str, value) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
    )


def _sparkline(points: list[float], *, width: int = 480, height: int = 60) -> str:
    """Render one series as an inline SVG polyline (deterministic)."""
    if not points:
        return "<p>no data</p>"
    top = max(points) or 1.0
    n = max(len(points) - 1, 1)
    coords = " ".join(
        f"{round(i * width / n, 2)},{round(height - v / top * height, 2)}"
        for i, v in enumerate(points)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#0969da" stroke-width="1.5" '
        f'points="{coords}"/></svg>'
    )


def _bar(fraction: float, *, scale: int = 120) -> str:
    width = round(max(0.0, min(fraction, 1.0)) * scale, 1)
    return f'<span class="bar" style="width:{width}px"></span>'


def _table(headers: list[str], rows: list[list[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def render_health_html(health) -> str:
    """Render one :class:`~repro.obs.health.PoolHealth` as a full page."""
    data = health.to_json()
    pool = data["pool"]
    over = data["overload"]

    tiles = "".join(
        [
            _tile("trace", data["trace"]),
            _tile("policy", data["policy"]),
            _tile("devices", data["devices"]),
            _tile("makespan (ms)", data["uptime_ms"]),
            _tile("pool utilization", f"{pool['utilization']:.3f}"),
            _tile("fairness (Jain)", f"{pool['fairness']:.3f}"),
            _tile("evicted", over["evicted"]),
            _tile("preemptions", over["preemptions"]),
        ]
    )

    device_rows = [
        [
            _esc(f"slot{d['slot']}"),
            _esc(d["jobs"]),
            _esc(d["busy_ms"]),
            _esc(d["bubble_ms"]),
            f"{_bar(d['utilization'])} {d['utilization']:.3f}",
        ]
        for d in pool["devices"]
    ]
    devices_html = (
        _table(
            ["device", "jobs", "busy (ms)", "bubble (ms)", "utilization"],
            device_rows,
        )
        if device_rows
        else "<p>per-device data needs an observer-instrumented replay</p>"
    )

    trend = data["waits"]["trend"]
    trend_html = _sparkline([w["mean_wait_ms"] for w in trend]) + _table(
        ["window end (ms)", "completions", "mean wait (ms)", "max wait (ms)"],
        [
            [
                _esc(w["t_ms"]),
                _esc(w["completions"]),
                _esc(w["mean_wait_ms"]),
                _esc(w["max_wait_ms"]),
            ]
            for w in trend
        ],
    ) if trend else "<p>no completed requests</p>"

    tenant_rows = [
        [
            _esc(t["name"]),
            _esc(t["submitted"]),
            _esc(t["completed"]),
            _esc(t["evicted"]),
            f"{t['eviction_share']:.3f}",
            _esc(t["preemptions"]),
            _esc(t["mean_wait_ms"]),
            _esc(t["p99_wait_ms"]),
            f"{t['mean_slowdown']:.3f}",
            _esc(t["work_ms"]),
        ]
        for t in data["tenants"]
    ]
    tenants_html = _table(
        [
            "tenant", "submitted", "completed", "evicted", "evict share",
            "preempt", "mean wait (ms)", "p99 wait (ms)", "slowdown",
            "work (ms)",
        ],
        tenant_rows,
    )

    overload_rows = [
        ["evicted requests", _esc(over["evicted"])],
        ["eviction rate (1/s)", _esc(over["eviction_rate_per_s"])],
        ["preemptions", _esc(over["preemptions"])],
        ["peak queue depth", _esc(over["peak_queue_depth"])],
    ] + [
        [f"evicted from {_esc(name)}", _esc(count)]
        for name, count in sorted(over["evictions_by_tenant"].items())
    ]
    overload_html = _table(["overload signal", "value"], overload_rows)

    notes_html = (
        "".join(f'<div class="note">{_esc(note)}</div>' for note in data["notes"])
        or "<p>no findings</p>"
    )

    sections = [
        f"<h1>Pool health: {_esc(data['trace'])} / {_esc(data['policy'])} "
        f"(seed {_esc(data['seed'])})</h1>",
        f'<div class="tiles">{tiles}</div>',
        "<h2>Devices</h2>",
        f"<p>busy {_esc(pool['busy_ms'])} ms of {_esc(pool['capacity_ms'])} ms "
        f"capacity; bubble {_esc(pool['bubble_ms'])} ms</p>",
        devices_html,
        "<h2>Wait-time trend</h2>",
        trend_html,
        "<h2>Tenants</h2>",
        tenants_html,
        "<h2>Overload</h2>",
        overload_html,
        "<h2>Notes</h2>",
        notes_html,
    ]
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        '<meta charset="utf-8">\n'
        f"<title>Pool health: {_esc(data['trace'])}</title>\n"
        f"<style>\n{_CSS}\n</style>\n</head>\n<body>\n{body}\n</body>\n</html>\n"
    )


def save_health_html(health, path) -> Path:
    """Render and write the health page to ``path``; return the path."""
    path = Path(path)
    path.write_text(render_health_html(health))
    return path
