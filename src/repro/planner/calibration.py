"""Probe-based calibration of stream-engine cost curves.

The stream sorters in this repository are *data independent*: for a given
input length the op sequence, per-op byte counts, substream shapes, and
therefore the modeled milliseconds are a pure function of
``(engine, n, GPU model, 1D->2D mapping)``.  That makes their cost models
calibratable by measurement: run the engine a handful of times at small
anchor sizes, read the telemetry, and fit a closed form that extrapolates.

The closed form leans on the exact complexity laws of
:mod:`repro.analysis.complexity`:

* **stream-op counts** are exactly polynomial in ``L = log2 n`` (degree
  <= 3: the overlapped program runs ``sum_j (2j - 1)`` steps, quadratic
  in L; the Appendix-A program is cubic; the networks' pass counts are
  quadratic).  :func:`repro.analysis.complexity.fit_log_growth` through
  the anchors therefore *interpolates* the law and extrapolates exactly
  -- the fitted polynomial reproduces the integer op count at every n.
* the **op-body time** (the ``max(compute, memory)`` term of the
  Section-8 cost model, summed over ops) is fitted over the basis
  ``{n L^2, n L, n, L}`` -- each level touches O(n) bytes over O(L)
  steps, across O(L) levels, with lower-order terms for the level-edge
  ops.  Extrapolation error stays under ~1% one octave past the anchors
  and a few percent at 16x (measured in ``tests/planner``); raise
  ``probe_ceiling`` when planning far above it.

Anchor runs use the engine's real dispatch path, so whatever the engine
pads, truncates, or caches is priced in.  This module only probes and
fits: the engine's :class:`~repro.planner.models.StreamCostModel` keeps
each curve per ``(gpu, mapping)`` for the life of the engine instance,
so re-registering the engine re-probes it.  Anchor costs are kept
verbatim, so estimates *at* an anchor size are exact, not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.complexity import fit_log_growth
from repro.errors import ModelError

__all__ = ["CostCurve", "calibrate_stream_engine"]

#: Anchor sizes (exponents of two) probed during calibration.  2^6..2^12
#: keeps a full calibration of one (engine, gpu, mapping) combination well
#: under a second while giving the 4-term body basis seven observations.
ANCHOR_EXPONENTS: tuple[int, ...] = (6, 7, 8, 9, 10, 11, 12)

#: Tiny sizes probed for their exact cost but *excluded from the fit*: the
#: optimized programs change shape below n = 64 (the Section-7 local-sort /
#: tree-build path truncates levels), so the polynomial op-count law only
#: holds from 2^6 up.  Estimates at these sizes short-circuit to the
#: measured value.
SMALL_EXPONENTS: tuple[int, ...] = (1, 2, 3, 4, 5)

#: Seed for the synthetic probe workloads (the modeled times are data
#: independent; the seed only pins the probe inputs for reproducibility).
PROBE_SEED = 0x5EED


def _body_basis(n: float, log_n: float) -> np.ndarray:
    """The op-body fit basis: ``[n L^2, n L, n, L]`` (see module docs)."""
    return np.array([n * log_n * log_n, n * log_n, n, log_n])


@dataclass(frozen=True)
class CostCurve:
    """One calibrated ``n -> modeled GPU milliseconds`` curve.

    ``op_poly`` are :func:`numpy.polyfit` coefficients of the stream-op
    count in ``log2 n``; ``body_coef`` weights :func:`_body_basis`;
    ``anchor_ms`` holds the exactly-measured cost at each probed size.
    """

    engine: str
    gpu: str
    mapping: str
    overhead_ms: float
    op_poly: tuple[float, ...]
    body_coef: tuple[float, ...]
    anchor_ms: dict[int, float]

    def predict_ops(self, n: int) -> int:
        """The stream-op count at length ``n`` (exact: the op-count law is
        a polynomial in log2 n and the fit interpolates it)."""
        if n < 2:
            return 0
        return int(round(float(np.polyval(self.op_poly, np.log2(n)))))

    def predict_ms(self, n: int) -> float:
        """Modeled GPU milliseconds at length ``n``.

        Exact at anchor sizes (measured, not fitted); fitted-with-
        extrapolation elsewhere.  ``n`` must be a power of two >= 2 --
        callers round non-power-of-two requests up first, mirroring the
        engines' +inf padding.
        """
        if n < 2:
            return 0.0
        if n & (n - 1):
            raise ModelError(
                f"cost curves are calibrated at power-of-two lengths, "
                f"got {n}; round up before predicting"
            )
        exponent = n.bit_length() - 1
        if exponent in self.anchor_ms:
            return self.anchor_ms[exponent]
        log_n = float(exponent)
        body = float(np.dot(self.body_coef, _body_basis(float(n), log_n)))
        return self.predict_ops(n) * self.overhead_ms + max(body, 0.0)


def hardware_key(request) -> tuple[str, str]:
    """The ``(gpu, mapping)`` names a curve is calibrated under (the
    engines cost an unmapped request under Z-order)."""
    mapping = request.mapping
    return request.gpu.name, "z-order" if mapping is None else mapping.name


def calibrate_stream_engine(engine_name: str, request) -> CostCurve:
    """Probe the anchors of ``engine_name`` under ``request``'s GPU and
    mapping, and fit its cost curve.

    ``request`` supplies the hardware context only; its payload is never
    touched.  Probes dispatch through the registry's engine exactly as
    real traffic does.  Nothing is cached here (see the module docs).
    """
    from repro.engines.base import SortRequest
    from repro.engines.registry import get

    engine = get(engine_name)
    rng = np.random.default_rng(PROBE_SEED)
    anchors: dict[int, float] = {}
    op_counts: dict[int, int] = {}
    for exponent in SMALL_EXPONENTS + ANCHOR_EXPONENTS:
        n = 1 << exponent
        probe = SortRequest(
            keys=rng.random(n, dtype=np.float32),
            gpu=request.gpu,
            host=request.host,
            mapping=request.mapping,
        )
        telemetry = engine.sort(probe).telemetry
        anchors[exponent] = telemetry.modeled_gpu_ms
        op_counts[exponent] = telemetry.stream_ops

    exponents = np.array(ANCHOR_EXPONENTS, dtype=float)
    ns = np.array([1 << e for e in ANCHOR_EXPONENTS], dtype=float)
    op_poly = fit_log_growth(
        ns, [op_counts[e] for e in ANCHOR_EXPONENTS], degree=3
    )
    overhead_ms = request.gpu.stream_op_overhead_us * 1e-3
    body = np.array(
        [anchors[e] - op_counts[e] * overhead_ms for e in ANCHOR_EXPONENTS]
    )
    basis = np.array(
        [_body_basis(n, log_n) for n, log_n in zip(ns, exponents)]
    )
    body_coef, *_ = np.linalg.lstsq(basis, body, rcond=None)

    gpu, mapping = hardware_key(request)
    return CostCurve(
        engine=engine_name,
        gpu=gpu,
        mapping=mapping,
        overhead_ms=overhead_ms,
        op_poly=tuple(float(c) for c in op_poly),
        body_coef=tuple(float(c) for c in body_coef),
        anchor_ms=anchors,
    )
