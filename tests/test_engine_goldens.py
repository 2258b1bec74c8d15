"""Per-engine goldens: telemetry, output and cost estimates.

``tests/goldens/engines.json`` pins, for every registered engine except
the ``auto`` front end: its description and capability flags; the
:class:`~repro.engines.SortTelemetry` of seeded sorts at n=256 and (for
engines that accept any length, except the quadratic transition sort)
n=1000, every field but ``wall_time_s``; the sha256 of each sorted
output; and the :class:`~repro.engines.CostEstimate` its cost model
gives at n in ``ESTIMATE_SIZES`` for no device count and for every
count the model scores under a cap of 4.  Floats are rounded to 6 decimals.  All of
these are modeled or counted figures, so a refactor of the engine
adapters or their cost models must leave the file unchanged.

Regenerate after an intentional modeled-cost change with::

    PYTHONPATH=src python tests/test_engine_goldens.py regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engines import SortRequest, SortTelemetry

GOLDEN = Path(__file__).parent / "goldens" / "engines.json"

#: Seed of every sorted input.
SEED = 35
SORT_SIZES = (256, 1000)
ESTIMATE_SIZES = (2, 1000, 4096, 65536)
MAX_DEVICES = 4


def _round(value):
    return round(value, 6) if isinstance(value, float) else value


def _keys(n: int) -> np.ndarray:
    """Seeded keys with repeats, so the id tiebreak shows in the output."""
    rng = np.random.default_rng(SEED + n)
    return (rng.integers(0, n // 2, n) / n).astype(np.float32)


def _sort_record(engine, n: int) -> dict:
    result = engine.sort(SortRequest(keys=_keys(n)))
    telemetry = {
        field.name: _round(getattr(result.telemetry, field.name))
        for field in dataclasses.fields(SortTelemetry)
        if field.name != "wall_time_s"
    }
    return {
        "telemetry": telemetry,
        "sha256": hashlib.sha256(result.values.tobytes()).hexdigest(),
    }


def _estimates(engine) -> dict:
    model = engine.cost_model
    out = {}
    for n in ESTIMATE_SIZES:
        request = SortRequest(keys=np.zeros(n, dtype=np.float32))
        # ``None`` is the model's own default device count.
        counts = dict.fromkeys((None, *model.device_counts(request, MAX_DEVICES)))
        for devices in counts:
            estimate = model.estimate(request, devices=devices)
            out[f"n={n} devices={devices}"] = {
                key: _round(value)
                for key, value in dataclasses.asdict(estimate).items()
            }
    return out


def engine_record(name: str) -> dict:
    engine = repro.engines.get(name)
    sizes = [
        n for n in SORT_SIZES
        if engine.capabilities.accepts(n) and not (
            n == 1000 and name == "odd-even-transition"
        )
    ]
    return {
        "description": engine.description,
        "capabilities": engine.capabilities.flags(),
        "sorts": {str(n): _sort_record(engine, n) for n in sizes},
        "estimates": _estimates(engine),
    }


#: Every registered engine but the ``auto`` front end, which reports the
#: engine it picked (covered by tests/planner/).
ENGINES = tuple(name for name in repro.engines.available() if name != "auto")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registered_engine():
    assert sorted(_golden()) == sorted(ENGINES)


@pytest.mark.parametrize("name", ENGINES)
def test_engine_matches_golden(name):
    # Round-trip through JSON so tuples and dict orders compare as stored.
    assert json.loads(json.dumps(engine_record(name))) == _golden()[name]


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    records = {name: engine_record(name) for name in ENGINES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
