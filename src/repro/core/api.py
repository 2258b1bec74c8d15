"""GPU-ABiSort variant selection: :class:`ABiSortConfig` and :func:`make_sorter`.

Callers sort through the unified engine API -- :func:`repro.sort` with a
:class:`repro.SortRequest`, or ``engine="abisort"`` (and the other
``abisort-*`` names) to pin GPU-ABiSort.  This module holds what
:func:`repro.exec.stream_tier.sort_on_stream` builds its sorters from:
an :class:`ABiSortConfig` is the stream program, run as
``make_sorter(config).sort(values, machine)``.  See docs/architecture.md
for the full layer map.

>>> import numpy as np
>>> from repro import make_sorter, make_values
>>> rng = np.random.default_rng(0)
>>> vals = make_values(rng.random(1024, dtype=np.float32))
>>> out = make_sorter().sort(vals)
>>> bool(np.all(out["key"][:-1] <= out["key"][1:]))
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.abisort import GPUABiSorter
from repro.core.optimized import OptimizedGPUABiSorter

__all__ = ["ABiSortConfig", "make_sorter"]


@dataclass(frozen=True)
class ABiSortConfig:
    """Algorithm-variant selection for :func:`make_sorter`.

    Attributes
    ----------
    schedule:
        ``"overlapped"`` -- O(log^2 n) stream operations (Section 5.4,
        default); ``"sequential"`` -- the Appendix-A O(log^3 n) program.
    optimized:
        Apply the Section-7 optimizations (local sort of 8 + fixed bitonic
        merge of 16); the paper's benchmarked configuration.  Default True.
    gpu_semantics:
        Enforce distinct input/output streams with ping-pong/copy-back
        (Section 6.1, default) instead of the Brook-style model.

    A config is the memo key of the stream tier, so every config is
    served from it; the per-level debug check is
    ``GPUABiSorter(validate_levels=True)``.
    """

    schedule: str = "overlapped"
    optimized: bool = True
    gpu_semantics: bool = True


def make_sorter(config: ABiSortConfig | None = None) -> GPUABiSorter:
    """Instantiate the sorter described by ``config``.

    Its ``sort(values, machine=None)`` runs on the given stream machine
    (the stream tier passes a counting machine to fill its memo) or on a
    private one.
    """
    config = config or ABiSortConfig()
    cls = OptimizedGPUABiSorter if config.optimized else GPUABiSorter
    return cls(schedule=config.schedule, gpu_semantics=config.gpu_semantics)

