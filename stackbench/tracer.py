"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps the calls that cross each layer boundary of
the stack (planner, engines, cluster, exec) and charges every call's
*self* CPU time -- its thread's CPU time minus that of the wrapped calls
it made -- to its layer.  Thread CPU time is used, not wall time,
because the service runs sorts on executor threads next to its event
loop: wall spans would charge a layer for time its thread spent waiting
for the interpreter lock.  Whatever CPU the process spends outside every
wrapped call is the *face* layer's: the service event loop, the store's
I/O, the fleet's event heap.

Nothing is patched until :meth:`LayerTracer.install` runs, so untraced
runs execute the program unmodified.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: The layers a span can be charged to, below the face.
LAYERS = ("planner", "engines", "cluster", "exec")


class _ThreadState:
    __slots__ = ("stack", "cpu", "calls")

    def __init__(self):
        self.stack: list[list] = []
        self.cpu: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)


class _Span:
    __slots__ = ("tracer", "layer")

    def __init__(self, tracer: "LayerTracer", layer: str):
        self.tracer, self.layer = tracer, layer

    def __enter__(self) -> None:
        self.tracer._enter(self.layer)

    def __exit__(self, *exc_info) -> None:
        self.tracer._exit()


class LayerTracer:
    """Self CPU time and call counts per layer, summed over threads."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, layer: str) -> None:
        self._state().stack.append([layer, time.thread_time(), 0.0])

    def _exit(self) -> None:
        end = time.thread_time()
        state = self._state()
        layer, start, child = state.stack.pop()
        spent = end - start
        state.cpu[layer] += spent - child
        state.calls[layer] += 1
        if state.stack:
            state.stack[-1][2] += spent

    def span(self, layer: str) -> "_Span":
        """A reusable context charging its block's self CPU to ``layer``."""
        return _Span(self, layer)

    def count(self, name: str) -> None:
        """Bump a plain counter (no time is charged)."""
        self._state().calls[name] += 1

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(cpu seconds per layer, calls per layer/counter)`` so far."""
        cpu: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in list(state.cpu.items()):
                cpu[key] += value
            for key, value in list(state.calls.items()):
                calls[key] += value
        return dict(cpu), dict(calls)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` with a version charging ``layer``."""
        enter, leave = self._enter, self._exit

        def make(original):
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    leave()

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "LayerTracer":
        """Wrap every layer boundary of the stack."""
        from repro.cluster import sharded
        from repro.cluster.scheduler import Scheduler
        from repro.engines import adapters
        from repro.engines.auto import AutoEngine
        from repro.engines.base import SortEngine
        from repro.exec import stream_tier
        from repro.exec.backend import ReferenceBackend
        from repro.exec.vectorized import VectorizedBackend
        from repro.planner.models import CompactionCostModel
        from repro.planner.planner import PlanCache, Planner
        from repro.store import compaction, store
        from repro.stream.context import StreamMachine

        for attr in ("plan", "plan_batch"):
            self.wrap(Planner, attr, "planner")
        self.wrap(CompactionCostModel, "estimate", "planner")
        self.wrap(store, "plan_compaction", "planner")

        self.wrap(SortEngine, "sort", "engines")
        self.wrap(AutoEngine, "sort", "engines")

        for attr in ("run", "assign_lpt"):
            self.wrap(Scheduler, attr, "cluster")
        self.wrap(sharded.ShardedSorter, "sort", "cluster")
        for module in (sharded, store, compaction):
            self.wrap(module, "merge_sorted_runs", "cluster")

        # The exec tier, including the stream machine it drives.
        for module in (stream_tier, adapters, sharded):
            self.wrap(module, "counting_sort_run", "exec")
        for module in (stream_tier, adapters):
            self.wrap(module, "counting_network_run", "exec")
        for backend in (ReferenceBackend, VectorizedBackend):
            self.wrap(backend, "merge_runs", "exec")
        for attr in ("kernel", "copy", "copy_values"):
            self.wrap(StreamMachine, attr, "exec")

        count = self.count

        def make_get(original):
            def get(cache, shape):
                plan = original(cache, shape)
                count("plan_cache_miss" if plan is None else "plan_cache_hit")
                return plan

            return get

        self._patch(PlanCache, "get", make_get)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(
    cpu: dict[str, float],
    calls: dict[str, int],
    process_cpu_s: float,
    ops: int,
    queue_wait_ms: float,
) -> dict[str, float]:
    """Per-op layer figures from one phase's tracer and process deltas.

    ``bench`` spans (the harness's own correctness checks) are excluded
    from the face residual, like every wrapped layer.  ``queue_wait_ms``
    is the wait the service measured for the phase's requests, summed
    (0 for the faces without a queue).
    """
    ops = max(ops, 1)
    inner = sum(cpu.values())
    out = {
        "face_cpu_ms": (process_cpu_s - inner) * 1e3 / ops,
        "service_queue_wait_ms": queue_wait_ms / ops,
    }
    for layer in LAYERS:
        out[f"{layer}_cpu_ms"] = cpu.get(layer, 0.0) * 1e3 / ops
    for layer in LAYERS:
        out[f"{layer}_calls"] = calls.get(layer, 0) / ops
    hits = calls.get("plan_cache_hit", 0)
    lookups = hits + calls.get("plan_cache_miss", 0)
    out["plan_cache_hit_pct"] = 100.0 * hits / lookups if lookups else 0.0
    return out


def delta(after: tuple[dict, dict], before: tuple[dict, dict]) -> tuple[dict, dict]:
    """Subtract two :meth:`LayerTracer.totals` snapshots."""
    (cpu1, calls1), (cpu0, calls0) = after, before
    cpu = {k: v - cpu0.get(k, 0.0) for k, v in cpu1.items()}
    calls = {k: v - calls0.get(k, 0) for k, v in calls1.items()}
    return cpu, calls
