"""One workload per face of the stack, and the closed loops that drive them.

Every workload makes its inputs from the seed, precomputes the
``np.lexsort`` answer for each, and checks every output against it
outside the timed call.  A face exposes::

    start()          build the face (untimed; part of set-up)
    prepare(i)       untimed per-op housekeeping (e.g. a fresh store)
    call(i)          the timed operation
    check(i, out)    True when the output is exactly right (untimed)
    close()

:func:`drive_sync` runs one caller in a closed loop (the ``sort``,
``store`` and ``fleet`` faces); :func:`drive_async` runs many concurrent
callers in a closed loop (the ``service`` face).  Both time operations
in rounds of ``ROUND_S`` with a yardstick reading between rounds.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stackbench.yardstick import reading_ms

ROOT = Path(__file__).resolve().parent.parent


def reference(values: np.ndarray) -> np.ndarray:
    """The contract: (key, id) lexicographic order."""
    return values[np.lexsort((values["id"], values["key"]))]


def same(out: np.ndarray, ref: np.ndarray) -> bool:
    return np.array_equal(out["key"], ref["key"]) and np.array_equal(
        out["id"], ref["id"]
    )


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    from repro.core.values import make_values

    return make_values(rng.random(n, dtype=np.float32))


#: Length of one round of timed operations.  A yardstick reading (see
#: ``yardstick.py``) is taken before the first round and after each one.
ROUND_S = 1.0


@dataclass
class Phase:
    """What one measured phase observed."""

    #: Latencies of the timed operations, one list per round.
    rounds_ms: list[list[float]] = field(default_factory=list)
    #: Wall time of each round, without the readings around it.
    round_s: list[float] = field(default_factory=list)
    #: Yardstick readings (ms), one more than there are rounds.
    yard_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    cpu_s: float = 0.0
    #: Queue wait the service measured for the timed requests, summed.
    queue_wait_ms: float = 0.0
    layers: tuple[dict, dict] | None = None

    @property
    def ops(self) -> int:
        return sum(len(r) for r in self.rounds_ms)


# -- sort: repro.sort, one caller ---------------------------------------------


class SortFace:
    """``repro.sort`` on 2^16 keys; the planner picks the sharded path."""

    N = 1 << 16

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [random_values(rng, self.N) for _ in range(4)]
        self.refs = [reference(v) for v in self.inputs]

    def start(self) -> None:
        import repro

        self._sort = repro.sort
        self._request = repro.SortRequest

    def prepare(self, i: int) -> None:
        pass

    def call(self, i: int):
        return self._sort(self._request(values=self.inputs[i % 4]))

    def check(self, i: int, out) -> bool:
        return same(out.values, self.refs[i % 4])

    def close(self) -> None:
        pass


# -- store: SortedStore ingest / query / compact cycles ----------------------


class StoreFace:
    """A fresh store per cycle: ingest, query as runs pile up, compact,
    query the compacted run."""

    INSERTS = 8
    INSERT_N = 1 << 14
    RANGE_WIDTH = 0.02
    TOP_K = 256

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.INSERT_N
        self.batches = [
            rng.random(n, dtype=np.float32) for _ in range(self.INSERTS)
        ]
        ops: list[tuple] = []
        for b in range(self.INSERTS):
            ops.append(("insert", b))
            ops += [("range", b, self._window(rng)) for _ in range(2)]
            ops.append(("topk", b))
        ops.append(("compact", self.INSERTS - 1))
        last = self.INSERTS - 1
        ops += [("range", last, self._window(rng)) for _ in range(8)]
        ops += [("topk", last)] * 2
        self.ops = ops
        # Expected answers: ids are the store's global ingest positions.
        from repro.core.values import make_values

        self._ingested = []
        for b, keys in enumerate(self.batches):
            ids = np.arange(b * n, (b + 1) * n, dtype=np.uint32)
            self._ingested.append(make_values(keys, ids))
        self._expected: dict[int, np.ndarray] = {}
        self._work = ROOT / ".stackbench_work"
        self._cycle = 0
        self.store = None

    def _window(self, rng) -> tuple[float, float]:
        lo = float(np.float32(rng.uniform(0.0, 1.0 - self.RANGE_WIDTH)))
        return lo, float(np.float32(lo + self.RANGE_WIDTH))

    def _expect(self, pos: int) -> np.ndarray:
        """The answer of query ``pos`` (computed on first use)."""
        if pos not in self._expected:
            self._expected[pos] = self._answer(self.ops[pos])
        return self._expected[pos]

    def _answer(self, op) -> np.ndarray:
        kind, b = op[0], op[1]
        everything = reference(np.concatenate(self._ingested[: b + 1]))
        if kind == "topk":
            return everything[: self.TOP_K]
        lo, hi = op[2]
        keys = everything["key"]
        return everything[(keys >= np.float32(lo)) & (keys <= np.float32(hi))]

    def start(self) -> None:
        from repro.store import SortedStore

        self._open = SortedStore
        self._work.mkdir(exist_ok=True)

    def prepare(self, i: int) -> None:
        if i % len(self.ops) == 0:
            self._cycle += 1
            path = self._work / f"cycle{os.getpid()}-{self._cycle}"
            self.store = self._open(path)

    def call(self, i: int):
        op = self.ops[i % len(self.ops)]
        kind = op[0]
        if kind == "insert":
            return self.store.insert(self.batches[op[1]])
        if kind == "range":
            return self.store.range(*op[2])
        if kind == "topk":
            return self.store.top_k(self.TOP_K)
        return self.store.compact()

    def check(self, i: int, out) -> bool:
        pos = i % len(self.ops)
        kind = self.ops[pos][0]
        if kind == "insert":
            ok = out is not None and out.n == self.INSERT_N
        elif kind == "compact":
            ok = out is not None and self.store.run_count == 1
        else:
            ok = same(out, self._expect(pos))
        if pos == len(self.ops) - 1:
            self._drop()
        return ok

    def _drop(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.path, ignore_errors=True)
            self.store = None

    def close(self) -> None:
        self._drop()
        shutil.rmtree(self._work, ignore_errors=True)


# -- fleet: multi-tenant trace replay, executed -------------------------------


class FleetFace:
    """Replay seeded two-tenant traces with real execution.

    The traffic is the ``burst`` scenario's shape (see
    :mod:`repro.workloads.traces`) scaled down to small requests: an
    ``interactive`` tenant bursting as an MMPP process over a Poisson
    ``background`` tenant, lognormal sizes rounded to the 64-pair
    granule.  Sizes from the body of the distribution recur across
    requests; sizes from its tail do not.  Each replay builds a fresh
    scheduler, whose cost oracle plans every distinct size anew (the
    planner's miss path), while the engines' shared planner hits on the
    sizes it has seen.  ``execute=True`` sorts every completed request
    through the engine stack, which makes the replay's outputs checkable.
    The bursts keep the scenario's 2:3 on/off ratio at a quarter of its
    time scale, so each trace holds several of them, and each seed draws
    many traces: the median replay then depends little on the seed.
    """

    #: Traces drawn per seed; operation ``i`` replays trace ``i % TRACES``.
    TRACES = 32
    DURATION_MS = 1000.0

    def __init__(self, seed: int):
        from repro.fleet import Tenant
        from repro.workloads.generators import paper_workload
        from repro.workloads.traces import TenantLoad, generate_trace

        loads = [
            TenantLoad(
                tenant=Tenant("interactive", priority=2, weight=2.0),
                arrivals="mmpp",
                rate_hz=20.0,
                burst_rate_hz=400.0,
                on_ms=50.0,
                off_ms=75.0,
                sizes="lognormal",
                size_median=512,
                size_sigma=0.5,
                n_min=64,
                n_max=1 << 12,
            ),
            TenantLoad(
                tenant=Tenant("background", priority=0, weight=1.0),
                arrivals="poisson",
                rate_hz=40.0,
                sizes="lognormal",
                size_median=1 << 11,
                size_sigma=0.5,
                n_min=1 << 9,
                n_max=1 << 14,
            ),
        ]
        self.traces = [
            generate_trace(
                "stackbench", loads, duration_ms=self.DURATION_MS,
                seed=seed * self.TRACES + k,
            )
            for k in range(self.TRACES)
        ]
        self.refs = [
            [reference(paper_workload(r.n, seed=r.seed)) for r in trace.requests]
            for trace in self.traces
        ]

    def start(self) -> None:
        from repro.fleet import FleetScheduler

        self._scheduler = FleetScheduler

    def prepare(self, i: int) -> None:
        pass

    def call(self, i: int):
        trace = self.traces[i % self.TRACES]
        fleet = self._scheduler(
            trace, "weighted-fair", devices=4, queue_bound=len(trace),
            execute=True,
        )
        return fleet, fleet.run()

    def check(self, i: int, out) -> bool:
        fleet, report = out
        refs = self.refs[i % self.TRACES]
        if report.completed != len(refs) or len(fleet.results) != len(refs):
            return False
        return all(same(fleet.results[j], ref) for j, ref in enumerate(refs))

    def close(self) -> None:
        pass


def drive_sync(face, seconds: float, warmup_s: float, tracer=None) -> Phase:
    """One caller, closed loop: warm up, then time every call, in rounds."""
    bench = tracer.span("bench") if tracer else nullcontext()
    phase = Phase()
    clock = time.perf_counter
    i = 0
    reading_ms()
    warm_end = clock() + warmup_s
    while clock() < warm_end:
        face.prepare(i)
        phase.wrong += not face.check(i, face.call(i))
        i += 1
    before = tracer.totals() if tracer else None
    cpu0 = time.process_time()
    deadline = clock() + seconds
    with bench:
        phase.yard_ms.append(reading_ms())
    while clock() < deadline:
        latencies: list[float] = []
        begin = clock()
        round_end = min(begin + ROUND_S, deadline)
        while clock() < round_end:
            with bench:
                face.prepare(i)
            phase.attempted += 1
            start = clock()
            try:
                out = face.call(i)
            except Exception as err:  # noqa: BLE001 -- counted, then reported
                phase.failed += 1
                print(f"op {i} failed: {err!r}", file=sys.stderr)
                i += 1
                continue
            latencies.append((clock() - start) * 1e3)
            with bench:
                if not face.check(i, out):
                    phase.wrong += 1
            i += 1
        phase.round_s.append(clock() - begin)
        phase.rounds_ms.append(latencies)
        with bench:
            phase.yard_ms.append(reading_ms())
    phase.cpu_s = time.process_time() - cpu0
    if tracer:
        from stackbench.tracer import delta

        phase.layers = delta(tracer.totals(), before)
    return phase


# -- service: SortService.submit, many callers -------------------------------


class ServiceFace:
    """``SortService.submit`` from many concurrent callers.

    Every request sorts SMALL_N keys through the planner, except one in
    LARGE_EVERY, which pins the paper's engine on LARGE_N keys (so the
    exec tier sits under the service too).
    """

    CLIENTS = 64
    SMALL_N = 256
    LARGE_N = 2048
    LARGE_EVERY = 32
    PINNED_ENGINE = "abisort"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.small = [random_values(rng, self.SMALL_N) for _ in range(64)]
        self.large = [random_values(rng, self.LARGE_N) for _ in range(4)]
        self.small_refs = [reference(v) for v in self.small]
        self.large_refs = [reference(v) for v in self.large]
        self.service = None

    def pick(self, i: int) -> tuple[np.ndarray, np.ndarray, str | None]:
        """``(values, expected, pinned engine)`` of request ``i``."""
        if i % self.LARGE_EVERY == self.LARGE_EVERY - 1:
            j = (i // self.LARGE_EVERY) % len(self.large)
            return self.large[j], self.large_refs[j], self.PINNED_ENGINE
        j = i % len(self.small)
        return self.small[j], self.small_refs[j], None

    async def start(self) -> None:
        from repro.engines.base import SortRequest
        from repro.service import SortService

        self._request = SortRequest
        self.service = await SortService(devices=4).start()

    async def call(self, i: int):
        values, _ref, engine = self.pick(i)
        return await self.service.submit(self._request(values=values), engine=engine)

    def check(self, i: int, out) -> bool:
        return same(out.values, self.pick(i)[1])

    async def close(self) -> None:
        if self.service is not None:
            await self.service.close()


async def drive_async(face, seconds: float, warmup_s: float, tracer=None) -> Phase:
    """Many callers, closed loop: each sends its next request when the
    previous one returns.  Every round starts the callers afresh and
    ends when the last of them has its reply."""
    bench = tracer.span("bench") if tracer else nullcontext()
    phase = Phase()
    clock = time.perf_counter
    counter = itertools.count()

    async def client(until: float, latencies: list[float] | None):
        timed = latencies is not None
        while clock() < until:
            i = next(counter)
            start = clock()
            phase.attempted += timed
            try:
                out = await face.call(i)
            except Exception as err:  # noqa: BLE001 -- counted
                phase.failed += timed
                print(f"request {i} failed: {err!r}", file=sys.stderr)
                continue
            if timed:
                latencies.append((clock() - start) * 1e3)
                phase.queue_wait_ms += out.telemetry.queue_wait_ms
            with bench:
                if not face.check(i, out):
                    phase.wrong += 1

    async def clients(until: float, latencies: list[float] | None = None):
        await asyncio.gather(*(client(until, latencies) for _ in range(face.CLIENTS)))

    reading_ms()
    await clients(clock() + warmup_s)
    before = tracer.totals() if tracer else None
    cpu0 = time.process_time()
    deadline = clock() + seconds
    with bench:
        phase.yard_ms.append(reading_ms())
    while clock() < deadline:
        latencies: list[float] = []
        begin = clock()
        await clients(min(begin + ROUND_S, deadline), latencies)
        phase.round_s.append(clock() - begin)
        phase.rounds_ms.append(latencies)
        with bench:
            phase.yard_ms.append(reading_ms())
    phase.cpu_s = time.process_time() - cpu0
    if tracer:
        from stackbench.tracer import delta

        phase.layers = delta(tracer.totals(), before)
    return phase
