"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``sort``      sort a generated workload, report counters and modeled times
``plan``      explain the cost-model planner's decision for a request
``cluster``   sharded sort across N modeled devices with overlap pipeline
``serve``     run the async sort service over a newline-delimited-JSON socket
``store``     persistent sorted store: insert/query/topk/compact/stats
``fleet``     multi-tenant fleet: trace generate/replay/compare
``metrics``   scrape a live server's metrics, or summarize a metrics NDJSON
``report``    reproduction checklist; ``report health`` analyzes pool health
``backends``  list the registered sort engines with their capability flags
``figures``   regenerate the paper's Figures 1 and 4-7 as text
``table2``    regenerate Table 2 (GeForce 6800 / AGP) with its plot
``table3``    regenerate Table 3 (GeForce 7800 / PCIe) with its plot
``ops``       stream-operation counts of the program variants
``profile``   per-level cost profile of one sort

``sort``, ``ops``, and ``profile`` take ``--engine`` to dispatch through
any registered backend (see ``backends``); ``--engine auto`` (the library
default) routes through the planner, and ``plan`` shows what it would
pick and why.

Every subcommand is an :class:`repro.ops.Op` whose options are declared
as :class:`repro.ops.Param` tuples and checked by :func:`repro.ops.bind`.
The ``store`` and ``fleet`` actions are the shared table
:data:`repro.ops.OPS` that the NDJSON socket serves too.

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
import json
import sys

import numpy as np

import repro
from repro.analysis import figures as fig
from repro.analysis.cluster_report import format_pool_health
from repro.analysis.plots import timing_plot
from repro.analysis.timing import (
    format_timing_table,
    table2_rows,
    table3_rows,
)
from repro.fleet import FleetObserver, FleetScheduler
from repro.obs import analyze_pool_health, save_health_html
from repro import ops
from repro.ops import OPS, Op, Param, bind
from repro.store import SortedStore
from repro.workloads.generators import DISTRIBUTIONS, generate_keys
from repro.workloads.traces import Trace


def _gpu_host(gpu: str):
    """``--gpu``: the 6800 on Table 2's AGP host, or the 7800 on Table 3's
    PCIe host -- the (GPU, host) pair of one paper system."""
    from repro.stream.gpu_model import (
        AGP_SYSTEM,
        GEFORCE_6800_ULTRA,
        GEFORCE_7800_GTX,
        PCIE_SYSTEM,
    )

    if gpu == "6800":
        return GEFORCE_6800_ULTRA, AGP_SYSTEM
    return GEFORCE_7800_GTX, PCIE_SYSTEM


def cmd_sort(args: argparse.Namespace) -> int:
    """``sort``: run a registered engine on a generated workload.

    Stream-machine engines are modeled on both paper GPUs; each number
    comes from the engine's own cost model (one dispatch per GPU), so the
    CLI agrees with the telemetry every other surface reports.
    """
    keys = generate_keys(args.dist, args.n, seed=args.seed)
    # The 6800 leg pairs the GPU with its Table-2 AGP host (as `plan` and
    # `cluster` do), so a planned dispatch here matches `plan --gpu 6800`.
    gpu6800, agp = _gpu_host("6800")
    gpu7800, _pcie = _gpu_host("7800")
    result = repro.sort(
        repro.SortRequest(keys=keys, gpu=gpu6800, host=agp), engine=args.engine
    )
    t = result.telemetry
    print(f"sorted {args.n} pairs ({args.dist}, seed {args.seed}) with "
          f"engine {args.engine!r}; first keys: {result.keys[:4]}")
    if result.plan is not None:
        served = result.engine + (
            f" on {result.plan.devices} devices" if result.plan.devices else ""
        )
        print(f"planner pick: {served} "
              f"(predicted {result.plan.cost_ms:.3f} ms; see `plan`)")
    print(f"stream ops: {t.stream_ops}  kernel instances: "
          f"{t.kernel_instances}  bytes moved: {t.bytes_moved / 1e6:.1f} MB")
    if result.machine is not None:
        t7800 = repro.sort(
            repro.SortRequest(keys=keys, gpu=gpu7800), engine=args.engine
        ).telemetry
        for gpu, ms in (
            (gpu6800, t.modeled_gpu_ms),
            (gpu7800, t7800.modeled_gpu_ms),
        ):
            print(f"modeled on {gpu.name}: {ms:.2f} ms")
    else:
        print(f"modeled time: {t.modeled_total_ms:.2f} ms "
              f"(CPU {t.modeled_cpu_ms:.2f} + GPU {t.modeled_gpu_ms:.2f} "
              f"+ I/O {t.modeled_io_ms:.2f})")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    """``backends``: the registry -- capability flags + one-line description.

    The default engine is marked with ``*``; flags are the declared
    :class:`~repro.engines.base.EngineCapabilities` in display order.
    """
    from repro.engines import CAPABILITY_FLAGS, DEFAULT_ENGINE, available, get

    names = available()
    width = max(len(n) for n in names) + 1
    header = "  ".join(f"{flag:>11}" for flag in CAPABILITY_FLAGS)
    print(f"{len(names)} registered sort engines (* = default):")
    print(f"  {'engine':<{width}}  {header}  description")
    for name in names:
        engine = get(name)
        flags = "  ".join(
            f"{'yes' if on else '-':>11}"
            for on in engine.capabilities.flags().values()
        )
        shown = name + ("*" if name == DEFAULT_ENGINE else "")
        print(f"  {shown:<{width}}  {flags}  {engine.description}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """``cluster``: run one sharded sort and print the pipeline schedule."""
    from repro.analysis.cluster_report import format_sharded_result

    gpu, host = _gpu_host(args.gpu)
    keys = generate_keys(args.dist, args.n, seed=args.seed)
    result = repro.sort(
        repro.SortRequest(keys=keys, gpu=gpu, host=host, devices=args.devices),
        engine="sharded-abisort",
    )
    t = result.telemetry
    print(
        f"sharded sort of {args.n} pairs ({args.dist}, seed {args.seed}) on "
        f"{args.devices} x {gpu.name} over {host.bus_name}:"
    )
    if result.cluster is None:
        # n <= 1 never dispatches to the engine (uniform trivial-input
        # semantics); there is no schedule to print.
        print(f"  trivial input (n = {args.n}): nothing to schedule")
        return 0
    print(format_sharded_result(result.cluster))
    single = repro.sort(
        repro.SortRequest(keys=keys, gpu=gpu, host=host), engine="abisort"
    )
    if t.modeled_makespan_ms:
        print(
            f"  single-device abisort: {single.telemetry.modeled_gpu_ms:.2f} ms "
            f"-> modeled speedup "
            f"{single.telemetry.modeled_gpu_ms / t.modeled_makespan_ms:.2f}x"
        )
    ok = np.array_equal(result.values, single.values)
    print(f"  output bit-identical to single-device engine: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the async sort service over an NDJSON socket.

    Binds a :class:`repro.service.SortService` to ``--host``/``--port``
    (``--port 0`` picks a free one) and serves one JSON object per line
    until interrupted -- or, with ``--limit N``, until N responses have
    been written (the smoke-test hook).  Prints the final service stats
    on shutdown.  Wire protocol: :mod:`repro.service.server`.

    Every server carries instrumentation (``{"op": "metrics"}`` and
    ``{"op": "trace"}`` always answer); ``--metrics-out`` additionally
    appends a metrics-NDJSON sample every second and ``--trace-out``
    saves the request spans as Chrome trace JSON at shutdown.
    """
    import asyncio

    from repro.analysis.cluster_report import format_service_stats
    from repro.service import (
        ServiceConfig,
        SortService,
        instrument,
        serve_forever,
    )

    gpu, host_model = _gpu_host(args.gpu)
    config = ServiceConfig(
        devices=args.devices,
        gpu=gpu,
        host=host_model,
        engine=args.engine,
        max_pending=args.max_pending,
        coalesce_window_ms=args.window_ms,
        max_batch=args.max_batch,
    )

    def on_ready(port: int) -> None:
        print(
            f"serving on {args.host}:{port} "
            f"({args.devices} x {gpu.name} workers, "
            f"window {args.window_ms} ms, max batch {args.max_batch}, "
            f"max pending {args.max_pending})",
            flush=True,
        )

    # Construct the service here so Ctrl-C (which unwinds through
    # asyncio.run before serve_forever can return it) still leaves a
    # handle for the final stats report.
    service = SortService(config)
    store = None
    if args.store is not None:
        store = SortedStore(args.store, gpu=gpu, host=host_model)
    instrument(service, store=store)
    try:
        asyncio.run(
            serve_forever(
                service,
                args.host,
                args.port,
                limit=args.limit,
                on_ready=on_ready,
                store=store,
                metrics_out=args.metrics_out,
                trace_out=args.trace_out,
            )
        )
    except KeyboardInterrupt:
        print("interrupted")
    print(format_service_stats(service.stats))
    if store is not None:
        from repro.analysis.cluster_report import format_store_stats

        print(format_store_stats(store.stats))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """``plan``: explain the planner's decision without sorting.

    Builds the same request ``sort --engine auto`` would serve, plans it,
    and prints every scored candidate with its predicted cost breakdown,
    the winner starred.  ``--batch`` additionally plans a batch of that
    many identical-shape requests (cluster size + LPT placement).
    """
    from repro.planner import default_planner

    gpu, host = _gpu_host(args.gpu)
    keys = generate_keys(args.dist, args.n, seed=args.seed)
    request = repro.SortRequest(
        keys=keys, gpu=gpu, host=host, devices=args.devices
    )
    planner = default_planner(args.max_devices)
    print(planner.plan(request).explain())
    if args.batch > 1:
        batch = planner.plan_batch([request] * args.batch)
        per_device: dict[int, int] = {}
        for device in batch.assignment:
            per_device[device] = per_device.get(device, 0) + 1
        placement = ", ".join(
            f"dev{d}: {count} req" for d, count in sorted(per_device.items())
        )
        print(
            f"batch of {args.batch}: {batch.devices} devices ({placement}), "
            f"predicted makespan {batch.predicted_makespan_ms:.3f} ms"
        )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``figures``: print the regenerated paper figures."""
    which = args.which
    if which in ("1", "all"):
        print("Figure 1: bitonic merge of 16 values")
        for row in fig.figure1_merge_trace():
            print("  " + " ".join(f"{v:2d}" for v in row))
        print()
    tables = {
        "4": (fig.figure4_table, "Figure 4 (j = 4, n = 2^4)"),
        "5": (fig.figure5_table, "Figure 5 (j = 4, n = 2^5)"),
        "6": (fig.figure6_table, "Figure 6 (overlapped steps)"),
        "7": (fig.figure7_table, "Figure 7 (truncated merge, j = 6)"),
    }
    for key, (builder, title) in tables.items():
        if which in (key, "all"):
            print(fig.format_figure(builder(), title))
            print()
    return 0


#: ``table2``/``table3``: row builder, table title, plot title.
_TABLES = {
    "table2": (table2_rows, "Table 2 (modeled, GeForce 6800 Ultra / AGP)",
               "time vs n (GeForce 6800 system)"),
    "table3": (table3_rows, "Table 3 (modeled, GeForce 7800 GTX / PCIe)",
               "time vs n (GeForce 7800 system)"),
}


def cmd_table(args: argparse.Namespace) -> int:
    """``table2``/``table3``: the timing table with its plot."""
    rows_for, title, plot_title = _TABLES[args.command]
    rows = rows_for(tuple(args.sizes or (1 << e for e in range(12, 17))))
    print(format_timing_table(rows, title))
    print()
    print(timing_plot(rows, plot_title))
    return 0


def cmd_ops(args: argparse.Namespace) -> int:
    """``ops``: stream-operation counts, per engine.

    Without ``--engine``: the paper's three program variants.  With it: the
    named backend only.
    """
    request = repro.SortRequest(keys=generate_keys("uniform", args.n, seed=0))
    if args.engine:
        rows = [(args.engine, args.engine)]
    else:
        rows = [
            ("Appendix A (sequential phases)", "abisort-sequential"),
            ("Section 5.4 (overlapped)      ", "abisort-overlapped"),
            ("Section 7  (optimized)        ", "abisort"),
        ]
    print(f"stream operations for n = {args.n}:")
    for label, engine in rows:
        t = repro.sort(request, engine=engine).telemetry
        print(f"  {label}: {t.stream_ops:5d} ops "
              f"({t.kernel_ops} kernels + {t.copy_ops} copies)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """A quick reproduction checklist across the paper's claims."""
    from repro.analysis.complexity import (
        abisort_comparison_count,
        comparisons_upper_bound,
    )
    from repro.analysis.pram import pram_rounds
    from repro.core.sequential import (
        SequentialCounters,
        adaptive_bitonic_sort_sequence,
    )
    from repro.stream.gpu_model import (
        AGP_SYSTEM,
        PCIE_SYSTEM,
        transfer_round_trip_ms,
    )

    checks: list[tuple[str, bool]] = []

    def check(label: str, ok: bool) -> None:
        checks.append((label, bool(ok)))

    # Figures regenerate exactly.
    check("Figure 1 rows match the paper",
          fig.figure1_merge_trace()[-1] == sorted(fig.FIGURE1_INPUT))
    check("Figure 4 table matches the paper",
          fig.figure4_table()[-1] == ("3 0", "32 31 32 30 32 31 32 3s"))
    check("Figure 6 runs in 2j-1 = 7 steps", len(fig.figure6_table()) == 7)
    check("Figure 7 runs in 2j-5 = 7 steps", len(fig.figure7_table()) == 7)

    # Comparison laws.
    n = 1 << 10
    counters = SequentialCounters()
    keys = generate_keys("uniform", n, seed=0)
    adaptive_bitonic_sort_sequence(
        [(float(k), i) for i, k in enumerate(keys)], counters
    )
    check("comparisons match the closed form",
          counters.comparisons == abisort_comparison_count(n))
    check("comparisons < 2 n log n",
          counters.comparisons < comparisons_upper_bound(n))

    # Sorting correctness across variants.
    values = repro.make_values(generate_keys("uniform", 1 << 10, seed=1))
    outs = [
        repro.make_sorter(repro.ABiSortConfig(schedule=s, optimized=o)).sort(values)
        for s in ("sequential", "overlapped") for o in (False, True)
    ]
    check("all four variants agree",
          all(np.array_equal(outs[0], o) for o in outs[1:]))

    # Timing-table shapes at the smallest paper size (2^15; below it the
    # contenders are within noise of each other, as in the paper).
    t2 = table2_rows(sizes=(1 << 15,))[0]
    check("Table 2 ordering: z < row < GPUSort",
          t2.abisort_ms["z-order"] < t2.abisort_ms["row-wise"] < t2.gpusort_ms)
    t3a = table3_rows(sizes=(1 << 13,))[0]
    t3b = table3_rows(sizes=(1 << 16,))[0]
    check("Table 3 crossover trend (ABiSort gains with n)",
          t3b.gpusort_ms / t3b.abisort_ms["z-order"]
          > t3a.gpusort_ms / t3a.abisort_ms["z-order"])

    # Transfer and PRAM claims.
    check("AGP round trip ~100 ms",
          abs(transfer_round_trip_ms(1 << 20, AGP_SYSTEM) - 100) < 5)
    check("PCIe round trip ~20 ms",
          abs(transfer_round_trip_ms(1 << 20, PCIE_SYSTEM) - 20) < 1)
    rounds = pram_rounds(1 << 12, (1 << 12) // 12)
    check("PRAM rounds O(log^2 n) at p = n/log n",
          rounds < 3 * 12 * 12)

    width = max(len(label) for label, _ in checks)
    print("reproduction checklist:")
    for label, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label:<{width}}")
    failed = sum(1 for _l, ok in checks if not ok)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: scrape a live server or summarize a metrics NDJSON.

    Without ``--samples``: one ``{"op": "metrics"}`` round trip against
    ``--host``/``--port`` prints the server's Prometheus-style text
    exposition.  With ``--samples FILE``: reads a metrics-NDJSON series
    (what ``serve --metrics-out`` / ``fleet replay --metrics-out``
    append) and prints the final sample as a table.
    """
    import asyncio

    if args.samples is not None:
        from repro.analysis.cluster_report import format_metrics_samples
        from repro.obs import read_samples

        samples = read_samples(args.samples)
        if not samples:
            print(f"no samples in {args.samples}")
            return 0
        last = samples[-1]
        print(
            format_metrics_samples(
                last["metrics"],
                title=(
                    f"metrics at t={last['t_ms']:.1f} ms "
                    f"(sample {last['seq'] + 1} of {len(samples)})"
                ),
            )
        )
        return 0

    from repro.service import request_op

    response = asyncio.run(request_op(args.host, args.port, "metrics"))
    if "error" in response:
        raise repro.ReproError(response["error"])
    print(response["metrics"], end="")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: per-tag cost breakdown of one sort on any engine."""
    from repro.analysis.profile import format_profile, profile_run

    gpu, _host = _gpu_host(args.gpu)  # the profile prices the GPU alone
    result = repro.sort(
        repro.SortRequest(keys=generate_keys("uniform", args.n, seed=0), gpu=gpu),
        engine=args.engine or "abisort",
    )
    if result.machine is None:
        print(f"engine {result.engine!r} does not run on the stream machine; "
              f"nothing to profile (telemetry: {result.telemetry.summary()})")
        return 2
    print(format_profile(profile_run(result.machine, gpu)))
    return 0


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
_STORE = (
    Param("path", required=True, help="store directory (created on first use)"),
)

#: The CLI's own options of the shared ops: stand-ins for the socket's
#: face inputs (``Op.inputs``), output switches, and file sinks.
_CLI_PARAMS = {
    "store.insert": (*_STORE, _N._replace(default=1 << 12), _DIST, _SEED),
    "store.query": _STORE,
    "store.topk": _STORE,
    "store.compact": (
        *_STORE,
        Param("explain", bool, False,
              help="print the planner's scored candidates first"),
    ),
    "store.stats": _STORE,
    "fleet.replay": (
        _JSON,
        _METRICS_OUT,
        Param("trace_out",
              help="write the replay's job spans as Chrome trace JSON"),
    ),
    "fleet.compare": (_JSON,),
}


def _generate(args):
    trace = ops.load_trace(args)
    return trace, trace.save(args["out"])


def _health(args):
    observer = FleetObserver(metrics_path=args["metrics_out"])
    report = FleetScheduler(
        ops.load_trace(args),
        args["policy"],
        devices=args["devices"],
        queue_bound=args["queue_bound"],
        observer=observer,
    ).run()
    return analyze_pool_health(report, observer)


#: CLI-only ops, declared from the same parameter groups as the table.
_GENERATE = Op(
    "fleet.generate",
    (*ops.SCENARIO, Param("out", required=True, help="output NDJSON path")),
    _generate,
    to_text=lambda result, args: (
        f"wrote {len(result[0])} requests / {len(result[0].tenants)} "
        f"tenants ({result[0].name!r}, seed {result[0].seed}) to {result[1]}"
    ),
    help="write a named scenario trace as NDJSON",
)
_HEALTH = Op(
    "report.health",
    (*ops.TRACE_SOURCE, ops.POLICY, ops.DEVICES, ops.QUEUE_BOUND, _METRICS_OUT,
     Param("out", help="also write the static HTML report here"), _JSON),
    _health,
    lambda health: health.to_json(),
    lambda health, args: format_pool_health(health),
    help="analyze pool health from one fleet replay",
)

#: The plain subcommands: ops whose handler prints and returns the exit
#: code (``to_text`` is ``None``).
_COMMANDS = (
    Op("sort",
       (_N, _DIST, _SEED,
        Param("engine", default="abisort",
              help="registered backend to dispatch through (see `backends`)")),
       cmd_sort, help="sort a generated workload"),
    Op("backends", (), cmd_backends,
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
       cmd_plan, help="explain the planner's engine/device choice"),
    Op("cluster",
       (_N, Param("devices", int, 4, help="device count"), _GPU,
        _DIST, _SEED),
       cmd_cluster, help="sharded sort across N modeled devices"),
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
       cmd_serve,
       help="async sort service over a newline-delimited-JSON socket"),
    Op("figures", (), cmd_figures, help="regenerate paper figures"),
    *(Op(name, (), cmd_table, help=f"regenerate {name} with its plot")
      for name in _TABLES),
    Op("ops",
       (_N._replace(default=1 << 12),
        Param("engine", help="count ops of this backend instead of the "
                             "three ABiSort variants")),
       cmd_ops, help="stream-op counts of the variants"),
    Op("profile",
       (_N, _GPU,
        Param("engine", help="profile this backend (default: abisort)")),
       cmd_profile, help="per-level cost profile of a sort"),
    Op("metrics",
       (_HOST, _PORT,
        Param("samples", help="summarize this metrics-NDJSON file instead "
                              "of scraping a server")),
       cmd_metrics,
       help="scrape a live server or summarize a metrics NDJSON"),
    Op("report", (), cmd_report,
       help="reproduction checklist (default) or pool-health analysis"),
)


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


def _add_op(sub, name: str, op: Op) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=op.help)
    add_params(parser, op.params)
    parser.set_defaults(op=op)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree, declared from the command and op tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GPU-ABiSort reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {op.name: _add_op(sub, op.name, op) for op in _COMMANDS}
    commands["figures"].add_argument("which", nargs="?", default="all",
                                     choices=("1", "4", "5", "6", "7", "all"))
    for name in _TABLES:
        commands[name].add_argument("--sizes", type=int, nargs="*",
                                    help="sequence lengths (default "
                                         "2^12..2^16)")
    _add_op(commands["report"].add_subparsers(dest="what"), "health", _HEALTH)
    for group, blurb in (
        ("store", "persistent sorted store: insert/query/compact/stats"),
        ("fleet", "multi-tenant fleet: trace generate/replay/compare"),
    ):
        actions = sub.add_parser(group, help=blurb).add_subparsers(
            dest="action", required=True
        )
        for op in (_GENERATE, *OPS.values()):
            if op.name.startswith(group + "."):
                own = _CLI_PARAMS.get(op.name, ())
                _add_op(actions, op.name.split(".")[1],
                        op._replace(params=op.params + own))
    return parser


def prepare(ns: argparse.Namespace) -> tuple[Op, dict]:
    """The CLI's parse -> bind step: the command's op and its arguments.

    Beside the bound parameters, the face inputs are built from their
    CLI stand-ins: ``--trace FILE`` is read, ``--path`` opens the store,
    ``--n/--dist/--seed`` generate the keys, and a replay's
    ``--metrics-out``/``--trace-out`` attach a fleet observer.
    """
    op, values = ns.op, dict(vars(ns))
    if values.get("trace") is not None:
        values["trace"] = Trace.load(values["trace"])
    args = {**values, **bind(op, values)}
    if "store" in op.inputs:
        args["store"] = SortedStore(args["path"])
    if "keys" in op.inputs:
        args["keys"] = generate_keys(args["dist"], args["n"], seed=args["seed"])
    if op.name == "fleet.replay" and (
        args["metrics_out"] is not None or args["trace_out"] is not None
    ):
        args["observer"] = FleetObserver(metrics_path=args["metrics_out"])
    return op, args


def run(ns: argparse.Namespace) -> int:
    """Run one parsed command; returns the exit code.

    A table op prints ``to_text`` (``--json``: the socket's response
    object), then writes its file sinks.
    """
    op, args = prepare(ns)
    if op.to_text is None:  # a plain command prints for itself
        return op.handler(argparse.Namespace(**args))
    result = op.handler(args)
    if args.get("json"):
        print(json.dumps(op.to_json(result), indent=2))
    else:
        print(op.to_text(result, args))
    if args.get("trace_out") is not None:
        spans = args["observer"].spans
        print(f"wrote {len(spans)} spans to {spans.save(args['trace_out'])}")
    if op.name == "report.health" and args["out"] is not None:
        print(f"wrote HTML report to {save_health_html(result, args['out'])}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    User-facing errors (unknown engines, capability mismatches, bad
    parameters) print one line instead of a traceback.
    """
    ns = build_parser().parse_args(argv)
    try:
        return run(ns)
    except repro.ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
