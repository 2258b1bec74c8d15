"""The async sort service: concurrency on top of plan -> execute.

The fifth layer of the stack (``stream -> core -> engines -> cluster ->
planner -> service``; see ``docs/architecture.md``): an asyncio service
that accepts concurrent sort requests, coalesces them into planner-sized
batches under a latency/size window, applies admission control with
bounded queues (rejecting with a retry-after hint when saturated), and
executes through the existing plan -> execute path on a pool of modeled
cluster :class:`~repro.cluster.device.Device`\\ s, each sorting one
request at a time, LPT-placed like the ``sort_batch`` cluster fast path.

Two Python entry points plus the socket:

* ``async`` -- a :class:`SortService` used as an async context manager::

      async with SortService(devices=4) as svc:
          result = await svc.submit(request)

* synchronous -- :meth:`SortService.map` for scripts::

      results = SortService(devices=4).map(requests)

* over a socket -- ``python -m repro serve`` speaks newline-delimited
  JSON (:mod:`repro.service.server`).

Results are bit-identical to :func:`repro.sort`; the service only adds
queueing, batching, and placement around the same engine dispatch.  See
``docs/service.md`` for the queueing semantics and tuning knobs.
"""

from repro.service.config import ServiceConfig
from repro.service.service import ServiceStats, SortService
from repro.service.metrics import ServiceInstrumentation, instrument
from repro.service.server import (
    request_op,
    request_sort,
    serve_forever,
    start_server,
)

__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "SortService",
    "start_server",
    "serve_forever",
    "request_sort",
    "request_op",
    "ServiceInstrumentation",
    "instrument",
]
