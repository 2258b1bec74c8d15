"""The operations both faces serve: one table for the CLI and the socket.

Each :class:`Op` declares typed :class:`Param`\\ s, a handler that returns
the domain object, and the object's two renderings: ``to_json`` (the
socket's response line and the CLI's ``--json``) and ``to_text`` (the
CLI's output).  Both faces check parameters with :func:`bind`, so a bad
one reads the same on either.  Inputs only one face has are built by
that face before the call (:attr:`Op.inputs`): ``store`` is the socket's
attached store or the CLI's ``--path``; ``keys`` are inline on the
socket, generated from ``--n/--dist/--seed`` on the CLI.
``docs/service.md`` tabulates the wire form of every op.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

from repro.analysis.cluster_report import format_fleet_report, format_store_stats
from repro.errors import ReproError
from repro.fleet import Autoscaler, compare_policies, replay
from repro.fleet.policy import POLICIES
from repro.workloads.traces import Trace, scenario_trace

__all__ = ["Param", "Op", "OPS", "bind", "load_trace"]


class Param(NamedTuple):
    """One typed parameter: ``--name`` on the CLI, ``"name"`` on the wire."""

    name: str
    type: type = str
    default: Any = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""


class Op(NamedTuple):
    """One operation: ``handler(args)`` -> domain object, and renderings.

    ``args`` is the :func:`bind` result plus the face-built ``inputs``;
    ``to_text(result, args)`` also sees the CLI's own options.
    """

    name: str
    params: tuple[Param, ...]
    handler: Callable[[dict], Any]
    to_json: Callable[[Any], dict] | None = None
    to_text: Callable[[Any, Mapping], str] | None = None
    help: str = ""
    inputs: tuple[str, ...] = ()


def bind(op: Op, mapping: Mapping[str, Any]) -> dict:
    """Check ``mapping`` against ``op.params``; return the bound values.

    An absent (or ``None``) value takes the default, unless required.
    Strings -- every CLI value -- parse to the parameter's type; JSON
    values must already have it (a JSON object builds a type that has
    ``from_json``).  Keys that name no parameter are ignored.
    """
    args = {}
    for p in op.params:
        value = mapping.get(p.name)
        if value is None and p.required:
            raise ReproError(f'{op.name} needs "{p.name}"')
        if value is not None:
            value = _coerce(op, p, value)
            if p.choices is not None and value not in p.choices:
                raise ReproError(
                    f"{op.name}: {p.name} must be one of {list(p.choices)}, "
                    f"not {value!r}"
                )
        args[p.name] = p.default if value is None else value
    return args


def _coerce(op: Op, p: Param, value):
    """``value`` as ``p.type``, or a :class:`ReproError` naming both."""
    if isinstance(value, p.type) and isinstance(value, bool) == (p.type is bool):
        return value
    try:
        if isinstance(value, str) and p.type in (int, float):
            return p.type(value)
        if p.type is float and type(value) is int:
            return float(value)
        if isinstance(value, dict) and hasattr(p.type, "from_json"):
            return p.type.from_json(value)
    except (KeyError, TypeError, ValueError):
        pass
    raise ReproError(
        f"{op.name}: {p.name} must be {p.type.__name__}, not {value!r:.60}"
    )


SCENARIO = (
    Param("scenario", default="burst",
          help="named scenario when no trace is given (burst, diurnal, flood)"),
    Param("seed", int, 0, help="scenario seed"),
    Param("duration_ms", float, help="trace length (default: the scenario's own)"),
)
#: A fleet op's trace: the given one (the CLI reads ``--trace`` from an
#: NDJSON file, the socket takes the inline ``Trace.to_json`` object),
#: else the named scenario.
TRACE_SOURCE = (
    Param("trace", Trace, help="replay this NDJSON trace file instead of a "
                               "generated scenario"),
    *SCENARIO,
)
POLICY = Param("policy", default="weighted-fair",
               help="scheduling policy (see `fleet policies`)")
DEVICES = Param("devices", int, 4, help="modeled device pool size")
QUEUE_BOUND = Param("queue_bound", int, 64,
                    help="per-tenant queue depth before eviction")
POOL = (
    DEVICES,
    QUEUE_BOUND,
    Param("autoscale", bool, False, help="let an autoscaler size the pool"),
    Param("min_devices", int, 1, help="autoscaler floor"),
    Param("max_devices", int, 8, help="autoscaler ceiling"),
)


def load_trace(args: Mapping) -> Trace:
    """The trace bound trace-source values name."""
    if args.get("trace") is not None:
        return args["trace"]
    return scenario_trace(
        args["scenario"], seed=args["seed"], duration_ms=args["duration_ms"]
    )


def _pool(args: Mapping) -> dict:
    """Replay keyword arguments from bound :data:`POOL` values."""
    autoscaler = None
    if args["autoscale"]:
        autoscaler = Autoscaler(
            min_devices=args["min_devices"], max_devices=args["max_devices"]
        )
    return {
        "devices": args["devices"],
        "queue_bound": args["queue_bound"],
        "autoscaler": autoscaler,
    }


def _insert(args):
    store = args["store"]
    meta = store.insert(args["keys"], engine=args["engine"])
    return meta, store.run_count, len(store)


def _insert_text(result, args) -> str:
    meta, runs, pairs = result
    return (
        f"inserted {args['n']} pairs ({args['dist']}, seed {args['seed']}) as "
        f"{meta.name} [{meta.min_key:.4f}, {meta.max_key:.4f}]; "
        f"store now {runs} runs / {pairs} pairs"
    )


def _hits_json(hits) -> dict:
    return {
        "n": int(hits.shape[0]),
        "keys": [float(k) for k in hits["key"]],
        "ids": [int(i) for i in hits["id"]],
    }


def _first_keys(hits) -> str:
    """A query answer's first eight keys, for the text face."""
    shown = ", ".join(f"{k:.4f}" for k in hits["key"][:8])
    return shown + ("..." if hits.shape[0] > 8 else "")


def _query_text(result, args) -> str:
    hits, runs = result
    return (
        f"range [{args['lo']}, {args['hi']}]: {hits.shape[0]} pairs "
        f"from {runs} runs: {_first_keys(hits)}"
    )


def _compact(args):
    """Compact; with the CLI's ``explain``, plan first (while runs remain)."""
    store = args["store"]
    plan = None
    if args.get("explain") and store.run_count >= 2:
        plan = store.compaction_plan()
    report = store.compact(fan_in=args["fan_in"], devices=args["devices"])
    return plan, report, store.run_count


def _compact_json(result) -> dict:
    _plan, report, runs = result
    if report is None:
        return {"compacted": False, "runs": runs}
    return {
        "compacted": True,
        "fan_in": report.fan_in,
        "devices": report.devices,
        "passes": report.passes,
        "runs": runs,
        "makespan_ms": report.makespan_ms,
        "predicted_ms": report.predicted_ms,
    }


def _compact_text(result, args) -> str:
    plan, report, runs = result
    if report is None:
        text = f"nothing to compact ({runs} run(s))"
    else:
        text = report.summary()
    return text if plan is None else f"{plan.explain()}\n{text}"


#: Every op both faces serve, by ``"<op>.<action>"``.
OPS: dict[str, Op] = {op.name: op for op in (
    Op("store.insert",
       (Param("engine", help="backend for the ingest sort (default: the "
                             "store's engine, normally the planner)"),),
       _insert,
       lambda r: {
           "run": None if r[0] is None else r[0].to_json(),
           "runs": r[1],
           "pairs": r[2],
       },
       _insert_text,
       help="sort one batch into a run", inputs=("store", "keys")),
    Op("store.query",
       (Param("lo", float, required=True, help="lowest key"),
        Param("hi", float, required=True, help="highest key")),
       lambda args: (args["store"].range(args["lo"], args["hi"]),
                     args["store"].run_count),
       lambda r: _hits_json(r[0]),
       _query_text,
       help="answer a key-range query", inputs=("store",)),
    Op("store.topk", (Param("k", int, 10, help="how many pairs"),),
       lambda args: args["store"].top_k(args["k"]),
       _hits_json,
       lambda hits, args: (
           f"top {args['k']}: {hits.shape[0]} pairs: {_first_keys(hits)}"),
       help="the k smallest pairs", inputs=("store",)),
    Op("store.compact",
       (Param("fan_in", int, help="pin the merge fan-in (default: the "
                                  "planner's pick)"),
        Param("devices", int, help="pin the device count (default: the "
                                   "planner's pick)")),
       _compact, _compact_json, _compact_text,
       help="merge runs down", inputs=("store",)),
    Op("store.stats", (),
       lambda args: args["store"].stats,
       lambda stats: stats.to_json(),
       lambda stats, args: format_store_stats(stats, f"store {args['path']}"),
       help="lifetime telemetry of the store", inputs=("store",)),
    Op("fleet.replay", (*TRACE_SOURCE, POLICY, *POOL),
       lambda args: replay(load_trace(args), args["policy"],
                           observer=args.get("observer"), **_pool(args)),
       lambda report: report.to_json(),
       lambda report, args: format_fleet_report(report),
       help="replay one trace under one policy"),
    Op("fleet.compare", (*TRACE_SOURCE, *POOL),
       lambda args: compare_policies(load_trace(args), **_pool(args)),
       lambda reports: {"reports": {
           name: r.to_json() for name, r in reports.items()}},
       lambda reports, args: "\n\n".join(
           format_fleet_report(r) for r in reports.values()) + "\n",
       help="replay one trace under every built-in policy"),
    Op("fleet.policies", (),
       lambda args: POLICIES,
       lambda policies: {"policies": sorted(policies)},
       lambda policies, args: "\n".join(
           f"{name:<16} {policies[name].__doc__.splitlines()[0]}"
           for name in sorted(policies)),
       help="list the built-in policies"),
)}
