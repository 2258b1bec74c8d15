"""The asyncio sort service: coalesce, admit, place, execute, account.

:class:`SortService` is the concurrency story on top of the plan ->
execute pipeline.  Callers :meth:`~SortService.submit` individual
:class:`~repro.engines.base.SortRequest`\\ s; the service

1. **admits** them against a bounded queue (``max_pending``), rejecting
   with :class:`~repro.errors.ServiceOverloadError` -- carrying a
   ``retry_after_ms`` back-off hint -- when saturated, instead of letting
   latency grow without bound;
2. **coalesces** admitted requests into batches, holding each batch open
   for ``coalesce_window_ms`` (or until ``max_batch`` requests arrive);
3. **plans** the batch: per-request engine choice through the cost-model
   planner (:meth:`~repro.planner.Planner.plan`), then placement of every
   request across the whole fixed device pool by
   :meth:`~repro.cluster.scheduler.Scheduler.assign_lpt` (one LPT rule,
   :func:`~repro.cluster.scheduler.lpt`, weighted by each plan's
   predicted cost or a pinned engine's estimate);
4. **executes** each device's share of the batch in placement order, one
   request at a time per modeled cluster
   :class:`~repro.cluster.device.Device` (a per-device lock keeps that
   order across batches), running each routed plan through
   :func:`repro.engines.auto.execute` off the event loop: one call into
   the default thread executor per device share, with the observer's
   ``on_execute`` hook firing on the worker thread between sorts (the
   instrumentation observes the planner relative error per batch, on the
   loop, in ``on_batch``);
5. **accounts**: each result's telemetry gains ``queue_wait_ms`` /
   ``coalesce_ms`` (measured) and ``service_makespan_ms`` (the modeled
   critical path of the batch's overlapped upload/sort/download schedule,
   Section 7 of the paper generalised to the pool), and the running
   :class:`ServiceStats` aggregates them across the service's lifetime.

Results are **bit-identical** to calling :func:`repro.sort` directly with
the same request: every request runs through the very same engine path,
and the service only adds scheduling around it.

Two Python entry points: ``async`` :meth:`SortService.submit` inside a
running service (``async with SortService(...) as svc``) and the
synchronous :meth:`SortService.map` for scripts.  ``python -m repro
serve`` wraps the service in a newline-delimited-JSON socket server
(:mod:`repro.service.server`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

from repro.cluster.device import Device, make_devices
from repro.cluster.scheduler import Scheduler
from repro.engines import _as_request, registry
from repro.engines.auto import execute
from repro.engines.base import SortRequest, SortResult, SortTelemetry
from repro.engines.telemetry import pipeline_tasks_for_results
from repro.errors import EngineError, ServiceError, ServiceOverloadError
from repro.planner.planner import default_planner
from repro.service.config import RETRY_AFTER_MS, ServiceConfig

__all__ = ["ServiceStats", "SortService"]

@dataclass
class _Ticket:
    """One in-flight submission: request, routing, and its future."""

    request: SortRequest
    engine: str | None
    future: asyncio.Future
    submitted: float  # perf_counter at submit()
    coalesce_ms: float = 0.0
    plan: object | None = None
    exec_engine: str = ""
    result: SortResult | None = None
    error: BaseException | None = None


@dataclass
class ServiceStats:
    """Running aggregates over a service's lifetime.

    ``telemetry`` sums every completed request's record (the same
    aggregation :func:`repro.engines.telemetry.aggregate_telemetry`
    performs for batches); the batch-level fields keep what per-request
    summing would overcount: ``service_makespan_ms`` adds each batch's
    modeled makespan once, and ``serialized_ms`` each batch's
    all-stages-serialized yardstick, so
    :attr:`modeled_speedup` is the service's modeled throughput gain over
    one-at-a-time submission.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    batches: int = 0
    largest_batch: int = 0
    service_makespan_ms: float = 0.0
    serialized_ms: float = 0.0
    telemetry: SortTelemetry = field(
        default_factory=lambda: SortTelemetry(requests=0)
    )
    #: Wall-clock epoch seconds when this record (the service) started.
    started_unix: float = field(default_factory=time.time)
    #: Monotonic reference for :meth:`live_uptime_s` (never jumps back).
    started_monotonic: float = field(default_factory=time.monotonic)
    #: Uptime frozen by :meth:`snapshot` (0.0 on the live record; read
    #: the live value through :meth:`live_uptime_s`).
    uptime_s: float = 0.0

    @property
    def mean_batch(self) -> float:
        """Mean coalesced batch size (0 before the first batch)."""
        if not self.batches:
            return 0.0
        return self.completed / self.batches

    @property
    def modeled_speedup(self) -> float:
        """Serialized modeled time over batch makespans (1.0 when idle)."""
        if not self.service_makespan_ms:
            return 1.0
        return self.serialized_ms / self.service_makespan_ms

    def summary(self) -> str:
        """One-line human-readable account of the service's lifetime."""
        return (
            f"{self.completed}/{self.submitted} completed "
            f"({self.rejected} rejected, {self.failed} failed) in "
            f"{self.batches} batches (mean {self.mean_batch:.1f}, "
            f"largest {self.largest_batch}); modeled service time "
            f"{self.service_makespan_ms:.2f} ms vs {self.serialized_ms:.2f} ms "
            f"serialized ({self.modeled_speedup:.2f}x)"
        )

    def snapshot(self) -> "ServiceStats":
        """An independent copy of the counters as they stand *now*.

        The live record mutates as requests complete; tests and harnesses
        that want to assert mid-run state (backpressure engaging, retries
        being hinted) need a frozen copy -- including of the aggregate
        ``telemetry``, which would otherwise keep accumulating under the
        caller's feet.
        """
        return replace(
            self,
            telemetry=replace(self.telemetry),
            uptime_s=self.live_uptime_s(),
        )

    def live_uptime_s(self) -> float:
        """Seconds since the service started, on the monotonic clock.

        On a :meth:`snapshot` copy the frozen :attr:`uptime_s` is
        returned instead, so a snapshot keeps describing the instant it
        was taken.
        """
        if self.uptime_s:
            return self.uptime_s
        return time.monotonic() - self.started_monotonic

    def to_json(self) -> dict:
        """Counters, derived ratios, and the start/uptime stamps.

        The payload the socket ``{"op": "stats"}`` line returns; uptime
        is what turns the counters into rates (requests per second =
        ``submitted / uptime_s``).
        """
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "largest_batch": self.largest_batch,
            "service_makespan_ms": self.service_makespan_ms,
            "serialized_ms": self.serialized_ms,
            "modeled_speedup": self.modeled_speedup,
            "started_unix": self.started_unix,
            "uptime_s": self.live_uptime_s(),
        }


class SortService:
    """An asyncio sort service over the four-layer stack.

    Use as an async context manager::

        async with SortService(devices=4) as svc:
            results = await asyncio.gather(*(svc.submit(r) for r in reqs))

    or synchronously from a script::

        results = SortService(devices=4).map(requests)

    Construction takes a :class:`~repro.service.ServiceConfig` (or its
    fields as keyword arguments).  Each request is planned once, and that
    plan both places and runs it.  See the module docstring for the
    pipeline a submission travels and ``docs/service.md`` for tuning.
    """

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ServiceError("pass a ServiceConfig or field overrides, not both")
        self.config = config or ServiceConfig(**overrides)
        self.stats = ServiceStats()
        #: Optional :class:`repro.service.metrics.ServiceInstrumentation`
        #: (attach with :func:`repro.service.metrics.instrument`).
        self.observer = None
        self._started = False
        self._closing = False
        self._pending = 0
        self._devices: list[Device] = []
        self._scheduler: Scheduler | None = None
        self._locks: list[asyncio.Lock] = []
        self._forming: list[_Ticket] = []
        self._timer: asyncio.TimerHandle | None = None
        self._batches: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_running(self) -> bool:
        """Whether the service is started and accepting submissions."""
        return self._started and not self._closing

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed (the backpressure
        level admission control compares against ``max_pending``)."""
        return self._pending

    async def start(self) -> "SortService":
        """Build the device pool and start accepting submissions."""
        if self._started:
            raise ServiceError("service is already running")
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._devices = make_devices(cfg.devices, gpu=cfg.gpu, host=cfg.host)
        self._scheduler = Scheduler(self._devices, overlap=True)
        self._locks = [asyncio.Lock() for _ in self._devices]
        self._started = True
        self._closing = False
        return self

    async def close(self) -> None:
        """Seal the forming batch, then drain every batch in flight.

        Every already-admitted request completes (its future resolves)
        before ``close`` returns; new submissions are rejected as soon as
        closing begins, so no batch can start after the seal.  Idempotent.
        """
        if not self._started:
            return
        self._closing = True
        self._seal()
        await asyncio.gather(*self._batches)
        self._started = False

    async def __aenter__(self) -> "SortService":
        """Start the service (``async with SortService(...) as svc``)."""
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        """Drain and stop the service on context exit."""
        await self.close()

    # -- submission ----------------------------------------------------------

    async def submit(self, request, engine: str | None = None) -> SortResult:
        """Admit one request and await its result.

        ``request`` accepts the same forms as :func:`repro.sort` (a
        :class:`~repro.engines.base.SortRequest` or a bare array).
        ``engine`` pins a registered backend; ``None`` falls back to the
        service's configured default, and a ``None`` default routes the
        request through the cost-model planner.  Raises
        :class:`~repro.errors.ServiceOverloadError` (with a
        ``retry_after_ms`` hint) when admission control rejects, and
        re-raises whatever the execution raised (e.g.
        :class:`~repro.errors.CapabilityError`) otherwise.
        """
        if not self.is_running:
            raise ServiceError(
                "service is not running; use `async with SortService(...)`"
                " or call start()"
            )
        req = _as_request(request)
        chosen = engine if engine is not None else self.config.engine
        if chosen is not None and chosen not in registry.available():
            # Fail fast, as repro.sort() would; never seal a batch with a
            # name it cannot route.
            raise EngineError(
                f"unknown engine {chosen!r}; available: "
                f"{', '.join(registry.available())}"
            )
        if self._pending >= self.config.max_pending:
            self.stats.rejected += 1
            raise ServiceOverloadError(
                f"service saturated: {self._pending} requests pending "
                f"(max_pending={self.config.max_pending}); retry in "
                f"{RETRY_AFTER_MS:.0f} ms",
                retry_after_ms=RETRY_AFTER_MS,
            )
        self._pending += 1
        self.stats.submitted += 1
        ticket = _Ticket(
            request=req,
            engine=chosen,
            future=asyncio.get_running_loop().create_future(),
            submitted=time.perf_counter(),
        )
        self._forming.append(ticket)
        window_s = self.config.coalesce_window_ms / 1e3
        if len(self._forming) >= self.config.max_batch or not window_s:
            self._seal()
        elif len(self._forming) == 1:
            self._timer = self._loop.call_later(window_s, self._seal)
        return await ticket.future

    async def flush(self) -> None:
        """Seal the currently forming batch without waiting out its window.

        A no-op when no batch is forming.  Useful for tests and for
        latency-sensitive callers that know no more traffic is coming.
        """
        if self.is_running:
            self._seal()

    def map(self, requests, engine: str | None = None) -> list[SortResult]:
        """Sort ``requests`` through the service, synchronously.

        The script-friendly entry point: runs its own event loop, starts
        the service, submits every request concurrently (throttled to
        ``max_pending`` so admission control never rejects), and returns
        the results in request order.  Must be called on a *stopped*
        service -- inside a running one, use :meth:`submit`.
        """
        if self._started:
            raise ServiceError(
                "map() runs its own event loop; await submit() inside a "
                "running service instead"
            )

        async def _run() -> list[SortResult]:
            throttle = asyncio.Semaphore(self.config.max_pending)

            async def one(request) -> SortResult:
                async with throttle:
                    return await self.submit(request, engine=engine)

            async with self:
                return list(
                    await asyncio.gather(*(one(r) for r in requests))
                )

        return asyncio.run(_run())

    # -- batches -------------------------------------------------------------

    def _seal(self) -> None:
        """Close the forming batch and start running it (no-op if empty)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._forming:
            return
        tickets, self._forming = self._forming, []
        sealed = time.perf_counter()
        for ticket in tickets:
            ticket.coalesce_ms = (sealed - ticket.submitted) * 1e3
        task = self._loop.create_task(self._run_batch(tickets))
        self._batches.add(task)
        task.add_done_callback(self._batches.discard)

    async def _run_batch(self, tickets: list[_Ticket]) -> None:
        """Route, place and execute one sealed batch, then account for it.

        Routing failures (an unplannable shape, a cost model rejecting)
        mark their ticket failed and skip execution; every future is
        resolved at the end, with the ticket's result or its error.
        """
        weights: list[float] = []
        for ticket in tickets:
            try:
                weights.append(self._route(ticket))
            except Exception as err:
                ticket.error = err
                weights.append(0.0)
        assignment = self._scheduler.assign_lpt(weights)
        self.stats.largest_batch = max(self.stats.largest_batch, len(tickets))
        shares: dict[int, list[_Ticket]] = {}
        for ticket, device in zip(tickets, assignment):
            if ticket.error is None:
                shares.setdefault(device, []).append(ticket)
        await asyncio.gather(
            *(self._run_device(device, share) for device, share in shares.items())
        )
        done = [
            (t, device)
            for t, device in zip(tickets, assignment)
            if t.result is not None
        ]
        if done:
            results = [t.result for t, _d in done]
            tasks = pipeline_tasks_for_results(
                results, [d for _t, d in done], self._devices[0].link
            )
            schedule = self._scheduler.run(tasks)
            self.stats.batches += 1
            self.stats.service_makespan_ms += schedule.makespan_ms
            self.stats.serialized_ms += schedule.serialized_ms
            for result in results:
                result.telemetry.service_makespan_ms = schedule.makespan_ms
                self.stats.telemetry.add(result.telemetry)
                self.stats.completed += 1
            if self.observer is not None:
                self.observer.on_batch(done, schedule)
        for ticket in tickets:
            self._pending -= 1
            if ticket.future.done():
                # The submitter cancelled (e.g. wait_for timeout): nothing
                # to deliver, but the slot above is still released and the
                # rest of the batch must resolve normally.
                continue
            if ticket.error is not None:
                self.stats.failed += 1
                ticket.future.set_exception(ticket.error)
            else:
                ticket.future.set_result(ticket.result)

    def _route(self, ticket: _Ticket) -> float:
        """Resolve one ticket's executing engine; return its LPT weight.

        Un-pinned tickets go through the planner (their winning
        :class:`~repro.planner.SortPlan` rides along and is attached to
        the result, exactly like ``engine="auto"`` dispatch); pinned
        tickets are priced by the pinned engine's cost model when it has
        one, falling back to ``n`` -- relative order is all LPT needs.
        """
        request = ticket.request
        if ticket.engine in (None, "auto"):
            # Single-device plans: the service's parallelism is the device
            # pool itself, so the planner must not nest modeled clusters
            # inside one device.
            plan = default_planner(1).plan(request)
            ticket.plan = plan
            ticket.exec_engine = plan.engine
            return plan.cost_ms
        ticket.exec_engine = ticket.engine
        model = registry.get(ticket.engine).cost_model
        if model is not None:
            try:
                return model.estimate(request).cost_ms
            except Exception:
                pass  # infeasible shapes surface at execution, as in sort()
        values = request.values if request.values is not None else request.keys
        return float(0 if values is None else len(values))

    async def _run_device(self, index: int, tickets: list[_Ticket]) -> None:
        """Execute one device's share of a batch, in placement order.

        The whole share is one executor call (:meth:`_run_share`): the
        sorts are synchronous simulation code, so they run off the event
        loop, which stays responsive for admission control and the socket
        server, and the share pays one thread-pool handoff, not one per
        request.  The device's lock is FIFO, so shares of successive
        batches run one after another and the device sorts one request
        at a time.
        """
        async with self._locks[index]:
            await self._loop.run_in_executor(
                None, self._run_share, index, tickets
            )

    def _run_share(self, index: int, tickets: list[_Ticket]) -> None:
        """Sort one device's share on an executor thread, in order.

        Each ticket gets its result or its own error; the observer's
        ``on_execute`` fires on this thread right after each sort, before
        the next one starts.  ``queue_wait_ms`` ends when the sort starts
        here, so the executor handoff counts as queue wait.
        """
        for ticket in tickets:
            started = time.perf_counter()
            try:
                result = execute(ticket.exec_engine, ticket.request, ticket.plan)
                result.telemetry.queue_wait_ms = (
                    started - ticket.submitted
                ) * 1e3
                result.telemetry.coalesce_ms = ticket.coalesce_ms
                ticket.result = result
                if self.observer is not None:
                    self.observer.on_execute(
                        index, (time.perf_counter() - started) * 1e3, ticket
                    )
            except Exception as err:  # delivered through the future
                ticket.error = err
