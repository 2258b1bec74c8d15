"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands.  ``sort``, ``ops``, and
``profile`` take ``--engine`` to dispatch through any registered backend
(see ``backends``); ``--engine auto`` (the library default) routes
through the planner, and ``plan`` shows what it would pick and why.

Every subcommand is an :class:`repro.ops.Op` under its dotted name
(``report.health`` is ``report health``): its options are
:class:`repro.ops.Param` tuples checked by :func:`repro.ops.bind`, its
handler returns a value, and ``to_text`` renders it (``to_json`` under
``--json``).  The ``store`` and ``fleet`` actions are ops of the shared
table :data:`repro.ops.OPS` that the NDJSON socket serves too; its ops
with a ``service`` input are the socket's alone (``metrics`` scrapes
one through :func:`repro.service.request_op`).

Examples::

    python -m repro backends
    python -m repro sort --n 16384 --dist uniform
    python -m repro sort --n 4096 --engine auto
    python -m repro plan --n 65536 --gpu 6800
    python -m repro cluster --n 65536 --devices 4 --gpu 7800
    python -m repro serve --port 7806 --devices 4
    python -m repro metrics --port 7806
    python -m repro fleet replay --scenario burst --metrics-out /tmp/m.ndjson
    python -m repro report health --scenario burst --out /tmp/health.html
    python -m repro store insert --path /tmp/demo-store --n 4096
    python -m repro store query --path /tmp/demo-store --lo 0.25 --hi 0.75
    python -m repro store compact --path /tmp/demo-store --explain
    python -m repro figures 6
    python -m repro table2 --sizes 4096 16384 65536
    python -m repro ops --n 4096 --engine periodic-balanced
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

import repro
from repro import engines, ops
from repro.analysis import figures as fig
from repro.analysis.cluster_report import (
    format_metrics_samples,
    format_pool_health,
    format_service_stats,
    format_sharded_result,
    format_store_stats,
)
from repro.analysis.complexity import (
    abisort_comparison_count,
    comparisons_upper_bound,
)
from repro.analysis.plots import timing_plot
from repro.analysis.pram import pram_rounds
from repro.analysis.profile import format_profile, profile_run
from repro.analysis.timing import format_timing_table, table2_rows, table3_rows
from repro.core.sequential import (
    SequentialCounters,
    adaptive_bitonic_sort_sequence,
)
from repro.fleet import FleetObserver, FleetScheduler
from repro.obs import analyze_pool_health, read_samples, save_health_html
from repro.ops import OPS, Op, Param, bind
from repro.planner import default_planner
from repro.service import (
    ServiceConfig,
    SortService,
    instrument,
    request_op,
    serve_forever,
)
from repro.store import SortedStore
from repro.stream.gpu_model import (
    AGP_SYSTEM,
    GEFORCE_6800_ULTRA,
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    transfer_round_trip_ms,
)
from repro.workloads.generators import DISTRIBUTIONS, generate_keys
from repro.workloads.traces import Trace

#: ``--gpu``: the (GPU, host) pair of one paper system -- the 6800 on
#: Table 2's AGP host, the 7800 on Table 3's PCIe host.
_SYSTEMS = {
    "6800": (GEFORCE_6800_ULTRA, AGP_SYSTEM),
    "7800": (GEFORCE_7800_GTX, PCIE_SYSTEM),
}


class Checked(NamedTuple):
    """A result with a pass/fail verdict: ``run`` exits 1 on a fail."""

    value: Any
    ok: bool


def _sort(args):
    """``sort``: run a registered engine on a generated workload.

    Stream-machine engines are modeled on both paper GPUs; each number
    comes from the engine's own cost model (one dispatch per GPU), so the
    CLI agrees with the telemetry every other surface reports.  The 6800
    leg pairs the GPU with its Table-2 AGP host (as ``plan`` and
    ``cluster`` do), so a planned dispatch matches ``plan --gpu 6800``.
    """
    keys = generate_keys(args["dist"], args["n"], seed=args["seed"])
    gpu, host = _SYSTEMS["6800"]
    result = repro.sort(repro.SortRequest(keys=keys, gpu=gpu, host=host),
                        engine=args["engine"])
    if result.machine is None:
        return result, None
    return result, repro.sort(repro.SortRequest(keys=keys, gpu=GEFORCE_7800_GTX),
                              engine=args["engine"]).telemetry


def _sort_text(r, args) -> str:
    result, t7800 = r
    t = result.telemetry
    lines = [f"sorted {args['n']} pairs ({args['dist']}, seed {args['seed']}) "
             f"with engine {args['engine']!r}; first keys: {result.keys[:4]}"]
    if result.plan is not None:
        devices = result.plan.devices
        lines.append(f"planner pick: {result.engine}"
                     f"{f' on {devices} devices' if devices else ''} "
                     f"(predicted {result.plan.cost_ms:.3f} ms; see `plan`)")
    lines.append(f"stream ops: {t.stream_ops}  kernel instances: "
                 f"{t.kernel_instances}  bytes moved: "
                 f"{t.bytes_moved / 1e6:.1f} MB")
    if t7800 is None:
        lines.append(f"modeled time: {t.modeled_total_ms:.2f} ms "
                     f"(CPU {t.modeled_cpu_ms:.2f} + GPU {t.modeled_gpu_ms:.2f} "
                     f"+ I/O {t.modeled_io_ms:.2f})")
    else:
        lines += [f"modeled on {GEFORCE_6800_ULTRA.name}: {t.modeled_gpu_ms:.2f} ms",
                  f"modeled on {GEFORCE_7800_GTX.name}: "
                  f"{t7800.modeled_gpu_ms:.2f} ms"]
    return "\n".join(lines)


def _backends_text(registry, args) -> str:
    """The registry: capability flags + one-line description per engine.

    The default engine is marked with ``*``; flags are the declared
    :class:`~repro.engines.base.EngineCapabilities` in display order.
    """
    width = max(len(n) for n in registry) + 1
    header = "  ".join(f"{flag:>11}" for flag in engines.CAPABILITY_FLAGS)
    lines = [f"{len(registry)} registered sort engines (* = default):",
             f"  {'engine':<{width}}  {header}  description"]
    for name, engine in registry.items():
        flags = "  ".join(f"{'yes' if on else '-':>11}"
                          for on in engine.capabilities.flags().values())
        shown = name + ("*" if name == engines.DEFAULT_ENGINE else "")
        lines.append(f"  {shown:<{width}}  {flags}  {engine.description}")
    return "\n".join(lines)


def _cluster(args) -> Checked:
    """``cluster``: one sharded sort, checked against one device."""
    gpu, host = _SYSTEMS[args["gpu"]]
    keys = generate_keys(args["dist"], args["n"], seed=args["seed"])
    result = repro.sort(repro.SortRequest(keys=keys, gpu=gpu, host=host,
                                          devices=args["devices"]),
                        engine="sharded-abisort")
    if result.cluster is None:
        # n <= 1 never dispatches to the engine (uniform trivial-input
        # semantics); there is no schedule to check.
        return Checked((result, None), True)
    single = repro.sort(repro.SortRequest(keys=keys, gpu=gpu, host=host),
                        engine="abisort")
    return Checked((result, single),
                   np.array_equal(result.values, single.values))


def _cluster_text(checked: Checked, args) -> str:
    (result, single), (gpu, host) = checked.value, _SYSTEMS[args["gpu"]]
    lines = [f"sharded sort of {args['n']} pairs ({args['dist']}, seed "
             f"{args['seed']}) on {args['devices']} x {gpu.name} over "
             f"{host.bus_name}:"]
    if single is None:
        lines.append(f"  trivial input (n = {args['n']}): nothing to schedule")
        return "\n".join(lines)
    lines.append(format_sharded_result(result.cluster))
    makespan, single_ms = (result.telemetry.modeled_makespan_ms,
                           single.telemetry.modeled_gpu_ms)
    if makespan:
        lines.append(f"  single-device abisort: {single_ms:.2f} ms "
                     f"-> modeled speedup {single_ms / makespan:.2f}x")
    lines.append("  output bit-identical to single-device engine: "
                 f"{'yes' if checked.ok else 'NO'}")
    return "\n".join(lines)


def _serve(args):
    """``serve``: the async sort service over an NDJSON socket.

    Serves until interrupted, or until ``--limit`` responses are written
    (the smoke-test hook); the listening and ``interrupted`` lines print
    live.  Returns the closed service and store; their final stats are
    the rendering.  Every server is instrumented, so ``{"op":
    "metrics"}`` and ``{"op": "trace"}`` always answer.  Wire protocol:
    :mod:`repro.service.server`.
    """
    gpu, host = _SYSTEMS[args["gpu"]]

    def on_ready(port: int) -> None:
        print(f"serving on {args['host']}:{port} "
              f"({args['devices']} x {gpu.name} workers, "
              f"window {args['window_ms']} ms, max batch {args['max_batch']}, "
              f"max pending {args['max_pending']})", flush=True)

    # Construct the service here so Ctrl-C (which unwinds through
    # asyncio.run before serve_forever can return it) still leaves a
    # handle for the final stats report.
    service = SortService(ServiceConfig(
        devices=args["devices"], gpu=gpu, host=host, engine=args["engine"],
        max_pending=args["max_pending"], coalesce_window_ms=args["window_ms"],
        max_batch=args["max_batch"]))
    store = None
    if args["store"] is not None:
        store = SortedStore(args["store"], gpu=gpu, host=host)
    instrument(service, store=store)
    try:
        asyncio.run(serve_forever(
            service, args["host"], args["port"], limit=args["limit"],
            on_ready=on_ready, store=store, metrics_out=args["metrics_out"],
            trace_out=args["trace_out"]))
    except KeyboardInterrupt:
        print("interrupted")
    return service, store


def _serve_text(r, args) -> str:
    service, store = r
    text = format_service_stats(service.stats)
    return text if store is None else f"{text}\n{format_store_stats(store.stats)}"


def _plan(args):
    """``plan``: the planner's decision for the request ``sort --engine
    auto`` would serve, without sorting; ``--batch`` also plans that many
    identical-shape requests (cluster size + LPT placement)."""
    gpu, host = _SYSTEMS[args["gpu"]]
    keys = generate_keys(args["dist"], args["n"], seed=args["seed"])
    request = repro.SortRequest(keys=keys, gpu=gpu, host=host,
                                devices=args["devices"])
    planner = default_planner(args["max_devices"])
    batch = None
    if args["batch"] > 1:
        batch = planner.plan_batch([request] * args["batch"])
    return planner.plan(request), batch


def _plan_text(r, args) -> str:
    """Every scored candidate with its predicted cost, the winner starred."""
    plan, batch = r
    if batch is None:
        return plan.explain()
    placement = ", ".join(f"dev{d}: {count} req" for d, count
                          in sorted(Counter(batch.assignment).items()))
    return (f"{plan.explain()}\nbatch of {args['batch']}: {batch.devices} "
            f"devices ({placement}), predicted makespan "
            f"{batch.predicted_makespan_ms:.3f} ms")


#: ``figures``: figure name -> (title, builder).
_FIGURES = {
    "1": ("Figure 1: bitonic merge of 16 values", fig.figure1_merge_trace),
    "4": ("Figure 4 (j = 4, n = 2^4)", fig.figure4_table),
    "5": ("Figure 5 (j = 4, n = 2^5)", fig.figure5_table),
    "6": ("Figure 6 (overlapped steps)", fig.figure6_table),
    "7": ("Figure 7 (truncated merge, j = 6)", fig.figure7_table),
}


def _figures_text(figures, args) -> str:
    blocks = []
    for name, rows in figures.items():
        title = _FIGURES[name][0]
        if name == "1":  # a merge trace, one value row per step
            blocks.append("\n".join([title, *(
                "  " + " ".join(f"{v:2d}" for v in row) for row in rows)]))
        else:
            blocks.append(fig.format_figure(rows, title))
    return "\n\n".join(blocks) + "\n"


#: ``table2``/``table3``: row builder, table title, plot title.
_TABLES = {
    "table2": (table2_rows, "Table 2 (modeled, GeForce 6800 Ultra / AGP)",
               "time vs n (GeForce 6800 system)"),
    "table3": (table3_rows, "Table 3 (modeled, GeForce 7800 GTX / PCIe)",
               "time vs n (GeForce 7800 system)"),
}


def _table_text(rows, args) -> str:
    _rows_for, title, plot_title = _TABLES[args["command"]]
    return (f"{format_timing_table(rows, title)}\n\n"
            f"{timing_plot(rows, plot_title)}")


#: ``ops`` without ``--engine``: the paper's three program variants.
_VARIANTS = (
    ("Appendix A (sequential phases)", "abisort-sequential"),
    ("Section 5.4 (overlapped)      ", "abisort-overlapped"),
    ("Section 7  (optimized)        ", "abisort"),
)


def _ops_text(rows, args) -> str:
    return "\n".join([f"stream operations for n = {args['n']}:", *(
        f"  {label}: {t.stream_ops:5d} ops "
        f"({t.kernel_ops} kernels + {t.copy_ops} copies)"
        for label, t in rows)])


def _ops(args):
    """``ops``: stream-operation counts of ``--engine``, else of the paper's
    three program variants."""
    request = repro.SortRequest(keys=generate_keys("uniform", args["n"]))
    rows = [(args["engine"], args["engine"])] if args["engine"] else _VARIANTS
    return [(label, repro.sort(request, engine=engine).telemetry)
            for label, engine in rows]


def _report(args) -> Checked:
    """A quick reproduction checklist across the paper's claims."""
    # Comparison counts of one sequential sort.
    n = 1 << 10
    counters = SequentialCounters()
    adaptive_bitonic_sort_sequence(
        [(float(k), i) for i, k in enumerate(generate_keys("uniform", n))],
        counters,
    )
    # Sorting correctness across variants.
    values = repro.make_values(generate_keys("uniform", 1 << 10, seed=1))
    outs = [
        repro.make_sorter(repro.ABiSortConfig(schedule=s, optimized=o)).sort(values)
        for s in ("sequential", "overlapped") for o in (False, True)
    ]
    # Timing-table shapes at the smallest paper size (2^15; below it the
    # contenders are within noise of each other, as in the paper).
    t2 = table2_rows(sizes=(1 << 15,))[0]
    t3a, t3b = table3_rows(sizes=(1 << 13,))[0], table3_rows(sizes=(1 << 16,))[0]
    checks = [
        ("Figure 1 rows match the paper",
         fig.figure1_merge_trace()[-1] == sorted(fig.FIGURE1_INPUT)),
        ("Figure 4 table matches the paper",
         fig.figure4_table()[-1] == ("3 0", "32 31 32 30 32 31 32 3s")),
        ("Figure 6 runs in 2j-1 = 7 steps", len(fig.figure6_table()) == 7),
        ("Figure 7 runs in 2j-5 = 7 steps", len(fig.figure7_table()) == 7),
        ("comparisons match the closed form",
         counters.comparisons == abisort_comparison_count(n)),
        ("comparisons < 2 n log n",
         counters.comparisons < comparisons_upper_bound(n)),
        ("all four variants agree",
         all(np.array_equal(outs[0], o) for o in outs[1:])),
        ("Table 2 ordering: z < row < GPUSort",
         t2.abisort_ms["z-order"] < t2.abisort_ms["row-wise"] < t2.gpusort_ms),
        ("Table 3 crossover trend (ABiSort gains with n)",
         t3b.gpusort_ms / t3b.abisort_ms["z-order"]
         > t3a.gpusort_ms / t3a.abisort_ms["z-order"]),
        ("AGP round trip ~100 ms",
         abs(transfer_round_trip_ms(1 << 20, AGP_SYSTEM) - 100) < 5),
        ("PCIe round trip ~20 ms",
         abs(transfer_round_trip_ms(1 << 20, PCIE_SYSTEM) - 20) < 1),
        ("PRAM rounds O(log^2 n) at p = n/log n",
         pram_rounds(1 << 12, (1 << 12) // 12) < 3 * 12 * 12),
    ]
    return Checked(checks, all(ok for _label, ok in checks))


def _report_text(checked: Checked, args) -> str:
    width = max(len(label) for label, _ in checked.value)
    passed = sum(1 for _label, ok in checked.value if ok)
    return "\n".join([
        "reproduction checklist:",
        *(f"  [{'PASS' if ok else 'FAIL'}] {label:<{width}}"
          for label, ok in checked.value),
        f"{passed}/{len(checked.value)} checks passed",
    ])


def _metrics(args):
    """``metrics``: a metrics-NDJSON series (``--samples``, what
    ``serve``/``fleet replay --metrics-out`` append), else a live
    server's text exposition from one ``{"op": "metrics"}`` round trip."""
    if args["samples"] is not None:
        return read_samples(args["samples"])
    response = asyncio.run(request_op(args["host"], args["port"], "metrics"))
    if "error" in response:
        raise repro.ReproError(response["error"])
    return response["metrics"]


def _metrics_text(result, args) -> str:
    if args["samples"] is None:
        return result.removesuffix("\n")  # the exposition ends its lines
    if not result:
        return f"no samples in {args['samples']}"
    last = result[-1]
    return format_metrics_samples(last["metrics"], title=(
        f"metrics at t={last['t_ms']:.1f} ms "
        f"(sample {last['seq'] + 1} of {len(result)})"))


def _profile(args):
    """``profile``: per-tag cost breakdown of one sort on any engine."""
    gpu, _host = _SYSTEMS[args["gpu"]]  # the profile prices the GPU alone
    result = repro.sort(
        repro.SortRequest(keys=generate_keys("uniform", args["n"]), gpu=gpu),
        engine=args["engine"] or "abisort",
    )
    if result.machine is None:
        raise repro.ReproError(
            f"engine {result.engine!r} does not run on the stream machine; "
            f"nothing to profile (telemetry: {result.telemetry.summary()})"
        )
    return profile_run(result.machine, gpu)


# -- the command tree: every subcommand is an Op ---------------------------

_N = Param("n", int, 1 << 14, help="pairs to generate")
_DIST = Param("dist", choices=tuple(sorted(DISTRIBUTIONS)), default="uniform",
              help="key distribution")
_SEED = Param("seed", int, 0, help="workload seed")
_GPU = Param("gpu", choices=("6800", "7800"), default="7800",
             help="hardware model: Table-2 6800/AGP or Table-3 7800/PCIe")
_HOST = Param("host", default="127.0.0.1", help="server address")
_PORT = Param("port", int, 7806, help="TCP port")
_JSON = Param("json", bool, False,
              help="print the machine-readable report instead")
_METRICS_OUT = Param("metrics_out",
                     help="append the replay's virtual-time metrics-NDJSON "
                          "samples here")
_STORE = (Param("path", required=True,
                help="store directory (created on first use)"),)

#: The CLI's own options of the shared ops: stand-ins for the socket's
#: face inputs (``Op.inputs``), output switches, and file sinks.
_CLI_PARAMS = {
    "store.insert": (*_STORE, _N._replace(default=1 << 12), _DIST, _SEED),
    "store.query": _STORE,
    "store.topk": _STORE,
    "store.compact": (*_STORE, Param(
        "explain", bool, False,
        help="print the planner's scored candidates first")),
    "store.stats": _STORE,
    "fleet.replay": (_JSON, _METRICS_OUT, Param(
        "trace_out", help="write the replay's job spans as Chrome trace JSON")),
    "fleet.compare": (_JSON,),
}


def _generate(args):
    trace = ops.load_trace(args)
    return trace, trace.save(args["out"])


def _health(args):
    """Replay under the CLI's observer, analyze, and save ``--out``."""
    report = FleetScheduler(
        ops.load_trace(args), args["policy"], devices=args["devices"],
        queue_bound=args["queue_bound"], observer=args["observer"]).run()
    health = analyze_pool_health(report, args["observer"])
    if args["out"] is not None:
        save_health_html(health, args["out"])
    return health


def _health_text(health, args) -> str:
    text = format_pool_health(health)
    if args["out"] is None:
        return text
    return f"{text}\nwrote HTML report to {Path(args['out'])}"


#: The CLI's own ops, in ``--help`` order; the shared ops of
#: :data:`repro.ops.OPS` that need no live service join them.
_COMMANDS = (
    Op("sort",
       (_N, _DIST, _SEED,
        Param("engine", default="abisort",
              help="registered backend to dispatch through (see `backends`)")),
       _sort, to_text=_sort_text, help="sort a generated workload"),
    Op("backends", (),
       lambda args: {name: engines.get(name) for name in engines.available()},
       to_text=_backends_text,
       help="list registered sort engines and capabilities"),
    Op("plan",
       (_N, _DIST, _SEED, _GPU,
        Param("devices", int,
              help="pin the device count instead of letting the planner "
                   "choose"),
        Param("max_devices", int, 4,
              help="largest cluster the planner may pick"),
        Param("batch", int, 1,
              help="also plan a batch of this many requests (cluster size "
                   "+ LPT placement)")),
       _plan, to_text=_plan_text,
       help="explain the planner's engine/device choice"),
    Op("cluster",
       (_N, Param("devices", int, 4, help="device count"), _GPU,
        _DIST, _SEED),
       _cluster, to_text=_cluster_text,
       help="sharded sort across N modeled devices"),
    Op("serve",
       (_HOST, _PORT._replace(help="TCP port (0 picks a free one)"),
        Param("devices", int, 4,
              help="worker-pool size, one worker per modeled device"),
        _GPU,
        Param("engine", help="default backend for unpinned requests "
                             "(default: the planner)"),
        Param("window_ms", float, 2.0, help="coalesce window in milliseconds"),
        Param("max_batch", int, 32, help="coalesced batch size cap"),
        Param("max_pending", int, 256,
              help="admission-control bound on in-flight requests"),
        Param("limit", int,
              help="exit after this many responses (smoke tests)"),
        Param("store", help="attach a persistent SortedStore directory "
                            "(enables the {\"op\": \"store\"} wire lines)"),
        Param("metrics_out", help="append a metrics-NDJSON sample here every "
                                  "second (and once at shutdown)"),
        Param("trace_out", help="write the request spans as Chrome trace "
                                "JSON at shutdown")),
       _serve, to_text=_serve_text,
       help="async sort service over a newline-delimited-JSON socket"),
    Op("figures", (),
       lambda args: {name: build() for name, (_title, build) in _FIGURES.items()
                     if args["which"] in (name, "all")},
       to_text=_figures_text, help="regenerate paper figures"),
    *(Op(name, (),
         lambda args: _TABLES[args["command"]][0](
             tuple(args["sizes"] or (1 << e for e in range(12, 17)))),
         to_text=_table_text, help=f"regenerate {name} with its plot")
      for name in _TABLES),
    Op("ops",
       (_N._replace(default=1 << 12),
        Param("engine", help="count ops of this backend instead of the "
                             "three ABiSort variants")),
       _ops, to_text=_ops_text, help="stream-op counts of the variants"),
    Op("profile",
       (_N, _GPU,
        Param("engine", help="profile this backend (default: abisort)")),
       _profile, to_text=lambda profile, args: format_profile(profile),
       help="per-level cost profile of a sort"),
    Op("metrics",
       (_HOST, _PORT,
        Param("samples", help="summarize this metrics-NDJSON file instead "
                              "of scraping a server")),
       _metrics, to_text=_metrics_text,
       help="scrape a live server or summarize a metrics NDJSON"),
    Op("report", (), _report, to_text=_report_text,
       help="reproduction checklist (default) or pool-health analysis"),
    Op("report.health",
       (*ops.TRACE_SOURCE, ops.POLICY, ops.DEVICES, ops.QUEUE_BOUND,
        _METRICS_OUT, Param("out", help="also write the static HTML report "
                                        "here"), _JSON),
       _health, lambda health: health.to_json(), _health_text,
       help="analyze pool health from one fleet replay", inputs=("observer",)),
    Op("fleet.generate",
       (*ops.SCENARIO, Param("out", required=True, help="output NDJSON path")),
       _generate, to_text=lambda r, args: (
           f"wrote {len(r[0])} requests / {len(r[0].tenants)} tenants "
           f"({r[0].name!r}, seed {r[0].seed}) to {r[1]}"),
       help="write a named scenario trace as NDJSON"),
)

#: The command groups that are no op of their own, with their ``--help``.
_GROUPS = {
    "store": "persistent sorted store: insert/query/compact/stats",
    "fleet": "multi-tenant fleet: trace generate/replay/compare",
}


def add_params(parser: argparse.ArgumentParser, params) -> None:
    """Declare ``params`` as ``--options`` of ``parser``.

    Values stay strings (flags booleans): :func:`repro.ops.bind` types
    and checks them, so the CLI and the socket reject a bad value alike.
    The help names the default (or that the option is required).
    """
    for p in params:
        flag = "--" + p.name.replace("_", "-")
        if p.type is bool:
            parser.add_argument(flag, dest=p.name, action="store_true",
                                help=p.help)
            continue
        note = " (required)" if p.required else ""
        if p.default is not None:
            note = f" (default {p.default})"
        metavar = "{%s}" % ",".join(p.choices) if p.choices else None
        parser.add_argument(flag, dest=p.name, metavar=metavar,
                            help=p.help + note)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree: every CLI op under its dotted name.

    ``"report"`` is a command, ``"report.health"`` its ``health``
    subcommand; ``"store.query"`` is the ``query`` action of the
    ``store`` group.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GPU-ABiSort reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The CLI's own ops, then each shared op that needs no live service
    # with the CLI's own options of it.
    table = (*_COMMANDS, *(
        op._replace(params=op.params + _CLI_PARAMS.get(op.name, ()))
        for op in OPS.values() if "service" not in op.inputs))
    parsers = {op.name: sub.add_parser(op.name, help=op.help)
               for op in table if "." not in op.name}
    for group, blurb in _GROUPS.items():
        parsers[group] = sub.add_parser(group, help=blurb)
    actions = {}
    for op in table:
        group, _, action = op.name.rpartition(".")
        if group:
            if group not in actions:  # a group's action, a command's "what"
                grouped = group in _GROUPS
                actions[group] = parsers[group].add_subparsers(
                    dest="action" if grouped else "what", required=grouped
                )
            parsers[op.name] = actions[group].add_parser(action, help=op.help)
        add_params(parsers[op.name], op.params)
        parsers[op.name].set_defaults(op=op)
    # Two argument shapes a Param does not declare.
    parsers["figures"].add_argument("which", nargs="?", default="all",
                                    choices=(*_FIGURES, "all"))
    for name in _TABLES:
        parsers[name].add_argument("--sizes", type=int, nargs="*",
                                   help="sequence lengths (default "
                                        "2^12..2^16)")
    return parser


def prepare(ns: argparse.Namespace) -> tuple[Op, dict]:
    """The CLI's parse -> bind step: the command's op and its arguments.

    Beside the bound parameters, the face inputs are built from their
    CLI stand-ins: ``--trace FILE`` is read, ``--path`` opens the store,
    ``--n/--dist/--seed`` generate the keys, and ``--metrics-out`` feeds
    the fleet observer.
    """
    op, values = ns.op, dict(vars(ns))
    if values.get("trace") is not None:
        values["trace"] = Trace.load(values["trace"])
    args = {**values, **bind(op, values)}
    if "store" in op.inputs:
        args["store"] = SortedStore(args["path"])
    if "keys" in op.inputs:
        args["keys"] = generate_keys(args["dist"], args["n"], seed=args["seed"])
    if "observer" in op.inputs:
        args["observer"] = FleetObserver(metrics_path=args["metrics_out"])
    return op, args


def run(ns: argparse.Namespace) -> int:
    """Run one parsed command; returns the exit code.

    The handler returns a value and the op renders it: ``to_text``, or
    with ``--json`` the socket's response object.  A result that reports
    a failed check (``ok`` false) exits 1.
    """
    op, args = prepare(ns)
    result = op.handler(args)
    if args.get("json"):
        print(json.dumps(op.to_json(result), indent=2))
    else:
        print(op.to_text(result, args))
    return 0 if getattr(result, "ok", True) else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    User-facing errors (unknown engines, capability mismatches, bad
    parameters) and OS errors (a missing input file, a refused
    connection) print one line instead of a traceback.
    """
    ns = build_parser().parse_args(argv)
    try:
        return run(ns)
    except (repro.ReproError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
