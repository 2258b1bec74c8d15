"""The pluggable backend registry: ``register`` / ``get`` / ``available``.

The registry maps engine names to zero-argument factories producing
:class:`~repro.engines.base.SortEngine` instances.  Factories (rather than
instances) keep registration import-cheap: :func:`get` builds each engine
on first use and then returns that same instance.  Engines hold no state
between requests (the stream tier memoizes by program and length, not by
engine object), so one instance per name serves every caller.

Extending the registry is one decorator::

    from repro.engines import SortEngine, EngineCapabilities, register

    @register("my-sort")
    class MySort(SortEngine):
        name = "my-sort"
        capabilities = EngineCapabilities(any_length=True)
        def _run(self, values, request):
            ...

The built-in backends (see :mod:`repro.engines.adapters`) are registered
when :mod:`repro.engines` is imported.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import EngineError
from repro.engines.base import EngineCapabilities, SortEngine
from repro.engines.cost import CostModel

__all__ = [
    "register",
    "unregister",
    "get",
    "available",
    "capabilities",
    "cost_model",
    "generation",
]

_REGISTRY: dict[str, Callable[[], SortEngine]] = {}

#: The engine instance per name, built by :func:`get` on first use.
_INSTANCES: dict[str, SortEngine] = {}

#: Cost models by engine name, filled lazily (building one may trigger
#: calibration probes; see :func:`cost_model`).
_COST_MODELS: dict[str, CostModel | None] = {}

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
    """Drop everything derived from ``name``'s old factory.

    That is its instance, its cost model and any probe-calibrated cost
    curves.  Calibration is reached through ``sys.modules`` so the
    registry never imports the planner package eagerly: if it was never
    loaded, there is nothing to evict.
    """
    import sys

    global _GENERATION
    _INSTANCES.pop(name, None)
    _COST_MODELS.pop(name, None)
    calibration = sys.modules.get("repro.planner.calibration")
    if calibration is not None:
        calibration.evict_engine(name)
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


def cost_model(name: str) -> CostModel | None:
    """The cost model of the engine registered under ``name``, or ``None``.

    Resolution order: an engine instance's own :attr:`SortEngine.cost_model`
    hook (the plugin path: a registered engine class simply sets the
    attribute), then the built-in model table of
    :mod:`repro.planner.models`.  Engines with neither are invisible to
    the planner but remain dispatchable by explicit name.  The result is
    cached per name; building a model is cheap (calibration probes run
    lazily at first estimate, not here).
    """
    if name not in _COST_MODELS:
        engine = get(name)
        model = engine.cost_model
        if model is None:
            # Late import: repro.planner imports this module.
            from repro.planner.models import builtin_cost_model

            model = builtin_cost_model(name, engine)
        _COST_MODELS[name] = model
    return _COST_MODELS[name]


def generation() -> int:
    """A token that changes whenever the registry population changes.

    Plan caches store the generation they were filled under and drop
    entries computed against a different engine population.
    """
    return _GENERATION
