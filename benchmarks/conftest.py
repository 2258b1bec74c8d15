"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper (see the
E-numbers in each module docstring) and *prints* the regenerated rows, so a
``pytest benchmarks/ --benchmark-only -s`` run reproduces the evaluation
section on the terminal.

By default the timing tables run at reduced sizes (2^12 .. 2^16) to keep a
benchmark pass under a few minutes; set ``REPRO_FULL_TABLES=1`` to run the
paper's exact 2^15 .. 2^20 range.

Machine-readable results: every benchmark also emits its computed rows via
the :func:`bench_json` fixture, which appends them (keyed by test name) to
``BENCH_<module>.json`` -- one file per benchmark module, under
``REPRO_BENCH_JSON_DIR`` (default: ``benchmarks/results/``).  CI and
longitudinal tooling read those instead of scraping stdout.

Benchmarks named in :data:`TRACKED_BENCHES` additionally mirror their JSON
to the *repository root* (``BENCH_<name>.json``), which is committed --
wall-clock history that survives across pull requests instead of dying
with the gitignored results directory.  Every file carries a ``_meta``
block (:func:`bench_meta`: git sha, Python and numpy versions, CPU count)
so that the recorded figures form a trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

TABLE_SIZES_FAST = tuple(1 << e for e in range(13, 18))
TABLE_SIZES_FULL = tuple(1 << e for e in range(15, 21))

#: Benchmark modules whose JSON is mirrored to the tracked repo root.
TRACKED_BENCHES = frozenset({"exec_tier", "stream_tier", "fleet_policies", "obs_overhead"})

#: The repository root (two levels up from this conftest).
REPO_ROOT = Path(__file__).resolve().parent.parent


def table_sizes() -> tuple[int, ...]:
    if os.environ.get("REPRO_FULL_TABLES") == "1":
        return TABLE_SIZES_FULL
    return TABLE_SIZES_FAST


def _json_ready(value):
    """Recursively convert a benchmark payload to JSON-serializable types
    (NumPy scalars/arrays, tuples, and non-string dict keys included)."""
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def results_dir() -> Path:
    """Where ``BENCH_<module>.json`` files land (created on demand)."""
    root = os.environ.get("REPRO_BENCH_JSON_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).parent / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def bench_meta() -> dict:
    """Where and from what the figures were measured.

    ``git_sha`` carries a ``-dirty`` suffix when the working tree had
    uncommitted changes.
    """
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


@pytest.fixture
def bench_json(request):
    """A callable ``emit(**payload)`` writing machine-readable results.

    Each call merges ``payload`` into ``BENCH_<module>.json`` under the
    current test's name, e.g.::

        def test_scaling(benchmark, bench_json):
            rows = benchmark.pedantic(compute, rounds=1, iterations=1)
            bench_json(rows=rows, sizes=SIZES)

    appends ``{"test_scaling": {"rows": ..., "sizes": ...}}`` to
    ``BENCH_cluster_scaling.json`` and refreshes its ``_meta`` block.  Payloads may contain NumPy scalars /
    arrays and tuple- or int-keyed dicts; they are converted on the way
    out.
    """
    module = request.node.module.__name__.rpartition(".")[2]
    name = module.removeprefix("bench_")
    path = results_dir() / f"BENCH_{name}.json"

    def emit(**payload) -> Path:
        existing = {}
        if path.exists():
            existing = json.loads(path.read_text())
        existing[request.node.name] = _json_ready(payload)
        existing["_meta"] = bench_meta()
        text = json.dumps(existing, indent=2, sort_keys=True) + "\n"
        path.write_text(text)
        if name in TRACKED_BENCHES:
            (REPO_ROOT / f"BENCH_{name}.json").write_text(text)
        return path

    return emit
