"""Byte-level goldens for the CLI's modeled output.

The commands below print only modeled (counted-cost) figures and seeded
data, so their output is deterministic to the byte.  The files under
``tests/goldens/`` pin it: a refactor of the planner, the batch
placement, the sharded path or the CLI's own rendering must leave them
unchanged.

Regenerate after an intentional modeled-cost change with::

    PYTHONPATH=src python tests/test_cli_goldens.py regen
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Golden file name -> the CLI arguments that produce it.
GOLDENS = {
    "plan_n65536_batch6_max8.txt": [
        "plan", "--n", "65536", "--batch", "6", "--max-devices", "8",
    ],
    "cluster_n65536_devices4.txt": ["cluster", "--n", "65536", "--devices", "4"],
    "sort_n4096.txt": ["sort", "--n", "4096"],
    "sort_n4096_auto.txt": ["sort", "--n", "4096", "--engine", "auto"],
    "backends.txt": ["backends"],
    "ops_n4096.txt": ["ops", "--n", "4096"],
    "profile_n4096.txt": ["profile", "--n", "4096"],
    "figures.txt": ["figures"],
    "table2_sizes4096_16384.txt": ["table2", "--sizes", "4096", "16384"],
    "report.txt": ["report"],
    "fleet_policies.txt": ["fleet", "policies"],
    "fleet_replay_burst.txt": ["fleet", "replay", "--scenario", "burst"],
    "fleet_compare_burst_300ms.txt": [
        "fleet", "compare", "--scenario", "burst", "--duration-ms", "300",
    ],
    "report_health_burst.txt": ["report", "health", "--scenario", "burst"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_modeled_output_matches_golden(name, capsys):
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    for name, argv in GOLDENS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv)
        (GOLDEN_DIR / name).write_text(out.getvalue())
        print(f"wrote {GOLDEN_DIR / name}")
