"""Stack benchmark: wall-clock latency through each face, CPU by layer.

    python3 stackbench/run.py --workload sort --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the sources are imported from
``src/``).  Workloads, one per face of the stack:

``sort``     ``repro.sort`` on 2^16 keys, one caller (sharded stream path)
``service``  ``SortService.submit``, 64 concurrent callers, small requests
``store``    ``SortedStore`` ingest / range / top-k / compact cycles
``fleet``    two-tenant burst-shaped fleet traces replayed with execution

With ``--trace 0`` the last line of output reports the end-to-end
metrics: per-operation latency (p50, p90) and operations per second over
the whole run, and set-up time (the median of three cold starts: a fresh
interpreter importing ``repro``, building the face and serving its first
operation).  Every time is scaled to nominal host speed by the yardstick
readings taken next to it (see ``yardstick.py``).  p90 is the highest
percentile every workload keeps at least ten samples beyond; the sample
counts and the unscaled figures go to standard error.  With ``--trace 1``
the same workload runs with layer spans installed and reports
per-operation CPU time and calls per layer (see ``tracer.py``) and the
service's queue wait.  Every output is checked against ``np.lexsort``;
``correct`` is false if any check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent

WORKLOADS = ("sort", "service", "store", "fleet")
SETUP_RUNS = 3
#: Samples a tail percentile needs beyond it to be reported as measured.
TAIL_SAMPLES = 10


def make_face(workload: str, seed: int):
    from stackbench import faces

    return {
        "sort": faces.SortFace,
        "service": faces.ServiceFace,
        "store": faces.StoreFace,
        "fleet": faces.FleetFace,
    }[workload](seed)


def is_async(workload: str) -> bool:
    return workload == "service"


def pin_to_one_cpu() -> None:
    """Run this process, and the probes it starts, on one CPU.

    Used for the service.  Unpinned, its event loop and executor threads
    hand the interpreter lock between the two CPUs, and what that costs
    swings with whether a neighbour holds the other CPU, which the
    single-threaded yardstick does not see: over ten seeds the unpinned
    p90 latency spread 0.29 of its median.  On one CPU the service slows
    with the host as the yardstick does.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe(workload: str, seed: int) -> tuple[float, float]:
    """One cold start, in this fresh interpreter: seconds to import the
    package, build the face and serve one checked operation, and the
    yardstick reading (ms) taken right after."""
    start = time.perf_counter()
    import repro  # noqa: F401 -- importing is part of set-up

    imported = time.perf_counter() - start
    face = make_face(workload, seed)  # input generation: not set-up
    if is_async(workload):

        async def first() -> tuple[float, bool]:
            begin = time.perf_counter()
            await face.start()
            try:
                out = await face.call(0)
                return time.perf_counter() - begin, face.check(0, out)
            finally:
                await face.close()

        spent, ok = asyncio.run(first())
    else:
        begin = time.perf_counter()
        face.start()
        face.prepare(0)
        out = face.call(0)
        spent = time.perf_counter() - begin
        ok = face.check(0, out)
        face.close()
    if not ok:
        raise SystemExit(f"stackbench: wrong output on the {workload} probe")
    from stackbench.yardstick import reading_ms

    return imported + spent, reading_ms(5)


def cold_setup(workload: str, seed: int) -> float:
    """One cold start's seconds, at nominal host speed."""
    cmd = [sys.executable, str(HERE), "--probe", "--workload", workload,
           "--seed", str(seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"stackbench: set-up probe failed ({workload})")
    from stackbench.yardstick import scale

    spent, reading = map(float, done.stdout.split()[-2:])
    return spent * scale(reading)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    from stackbench.faces import drive_async, drive_sync
    from stackbench.tracer import LayerTracer

    warmup_s = min(1.0, seconds / 4)
    tracer = LayerTracer().install() if trace else None
    face = make_face(workload, seed)
    try:
        if not is_async(workload):
            face.start()
            try:
                return drive_sync(face, seconds, warmup_s, tracer)
            finally:
                face.close()

        async def run():
            await face.start()
            try:
                return await drive_async(face, seconds, warmup_s, tracer)
            finally:
                await face.close()

        return asyncio.run(run())
    finally:
        if tracer:
            tracer.uninstall()


def normalised(phase) -> tuple[np.ndarray, float]:
    """Latencies (ms) and operations/s at nominal host speed.

    Each round is scaled by the mean of the yardstick readings taken
    just before and just after it.
    """
    from stackbench.yardstick import scale

    yard = np.asarray(phase.yard_ms)
    factors = scale((yard[:-1] + yard[1:]) / 2)
    latencies = np.concatenate(
        [np.asarray(ms) * f for ms, f in zip(phase.rounds_ms, factors)]
    )
    return latencies, latencies.size / float(np.dot(phase.round_s, factors))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(
            f"stackbench: no package sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a checkout"
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.probe:
        print(*map(repr, probe(args.workload, args.seed)))
        return

    if is_async(args.workload):
        pin_to_one_cpu()
    setups = [] if args.trace else [
        cold_setup(args.workload, args.seed) for _ in range(SETUP_RUNS)
    ]
    phase = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    ops = phase.ops
    if ops == 0:
        sys.exit("stackbench: no operation completed")
    if args.trace:
        from stackbench.tracer import layer_metrics
        from stackbench.yardstick import scale

        host = scale(statistics.median(phase.yard_ms))
        cpu, calls = phase.layers
        cpu = {layer: spent * host for layer, spent in cpu.items()}
        figures = layer_metrics(
            cpu, calls, phase.cpu_s * host, ops, phase.queue_wait_ms * host
        )
        metrics = {
            name: metric(value, "count" if "_calls" in name else
                         "%" if name.endswith("_pct") else "ms")
            for name, value in figures.items()
        }
    else:
        latencies, ops_per_s = normalised(phase)
        p50, p90 = (float(q) for q in np.percentile(latencies, [50, 90]))
        beyond = int(np.count_nonzero(latencies > p90))
        raw = np.concatenate([np.asarray(ms) for ms in phase.rounds_ms])
        print(
            f"stackbench: {ops} latency samples, {beyond} beyond p90; "
            f"unscaled p50 {np.percentile(raw, 50):.2f} ms, "
            f"p90 {np.percentile(raw, 90):.2f} ms, "
            f"{ops / sum(phase.round_s):.2f} ops/s; yardstick median "
            f"{statistics.median(phase.yard_ms):.2f} ms",
            file=sys.stderr,
        )
        if beyond < TAIL_SAMPLES:
            print(
                f"stackbench: warning: p90 has fewer than {TAIL_SAMPLES} "
                "samples beyond it; run longer",
                file=sys.stderr,
            )
        metrics = {
            "p50_ms": metric(p50, "ms"),
            "p90_ms": metric(p90, "ms"),
            "ops_per_s": metric(ops_per_s, "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    result = {
        "correct": phase.wrong == 0 and phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed + phase.wrong,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
