"""The pluggable backend registry: ``register`` / ``get`` / ``available``.

The registry maps engine names to zero-argument factories producing
:class:`~repro.engines.base.SortEngine` instances.  Factories (rather than
instances) keep registration import-cheap: :func:`get` builds each engine
on first use and then returns that same instance.  Engines hold no state
between requests (the stream tier memoizes by program and length, not by
engine object), so one instance per name serves every caller.

Extending the registry is one decorator; setting ``cost_model`` is what
makes the engine plannable (without one it is served by name only)::

    from repro.engines import SortEngine, EngineCapabilities, register

    @register("my-sort")
    class MySort(SortEngine):
        name = "my-sort"
        capabilities = EngineCapabilities(any_length=True)
        cost_model = MyCostModel()  # a repro.engines.CostModel
        def _run(self, values, request):
            ...

The built-in backends (see :mod:`repro.engines.adapters`) are registered
when :mod:`repro.engines` is imported, each carrying its own cost model.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import EngineError
from repro.engines.base import EngineCapabilities, SortEngine

__all__ = [
    "register",
    "unregister",
    "get",
    "available",
    "capabilities",
    "generation",
]

_REGISTRY: dict[str, Callable[[], SortEngine]] = {}

#: The engine instance per name, built by :func:`get` on first use.
_INSTANCES: dict[str, SortEngine] = {}

#: Bumped on every register/unregister; plan caches compare it to detect a
#: changed engine population (see :class:`repro.planner.planner.PlanCache`).
_GENERATION = 0

#: The engine used when a request names none: the cost-model planner of
#: :mod:`repro.planner`, which scores every capability-feasible backend
#: and dispatches to the cheapest (``repro.sort(request)`` == auto).
DEFAULT_ENGINE = "auto"


def register(
    name: str,
    factory: Callable[[], SortEngine] | None = None,
    *,
    replace: bool = False,
):
    """Register ``factory`` under ``name``; usable as a decorator.

    ``factory`` is any zero-argument callable returning a
    :class:`SortEngine` (an engine class works directly).  Re-registering an
    existing name raises :class:`EngineError` unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise EngineError(f"engine name must be a non-empty string, got {name!r}")

    def _do_register(f: Callable[[], SortEngine]):
        if not callable(f):
            raise EngineError(f"engine factory for {name!r} is not callable")
        if name in _REGISTRY and not replace:
            raise EngineError(
                f"engine {name!r} is already registered; pass replace=True "
                f"to override"
            )
        _REGISTRY[name] = f
        _forget(name)
        return f

    if factory is None:
        return _do_register
    return _do_register(factory)


def _forget(name: str) -> None:
    """Drop ``name``'s instance, and with it everything derived from the
    old factory (its cost model and any curves that model calibrated)."""
    global _GENERATION
    _INSTANCES.pop(name, None)
    _GENERATION += 1


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (for tests and plugins)."""
    if name not in _REGISTRY:
        raise EngineError(f"engine {name!r} is not registered")
    del _REGISTRY[name]
    _forget(name)


def get(name: str | None = None) -> SortEngine:
    """The engine registered under ``name``, built on first use."""
    name = name or DEFAULT_ENGINE
    engine = _INSTANCES.get(name)
    if engine is not None:
        return engine
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available: {', '.join(available())}"
        ) from None
    engine = factory()
    if not isinstance(engine, SortEngine):
        raise EngineError(
            f"factory for {name!r} returned {type(engine).__name__}, "
            f"not a SortEngine"
        )
    _INSTANCES[name] = engine
    return engine


def available(*, require: Iterable[str] = ()) -> tuple[str, ...]:
    """The registered engine names, sorted.

    ``require`` filters to engines declaring every named capability flag,
    e.g. ``available(require=("out_of_core",))``.
    """
    required = tuple(require)
    names = []
    for name in sorted(_REGISTRY):
        if required and capabilities(name).missing(required):
            continue
        names.append(name)
    return tuple(names)


def capabilities(name: str) -> EngineCapabilities:
    """The capability record of the engine registered under ``name``."""
    return get(name).capabilities


def generation() -> int:
    """A token that changes whenever the registry population changes.

    Plan caches store the generation they were filled under and drop
    entries computed against a different engine population.
    """
    return _GENERATION
