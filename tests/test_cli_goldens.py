"""Byte-level goldens for the CLI's modeled output.

``plan`` and ``cluster`` print only modeled (counted-cost) figures, so
their output is deterministic to the byte.  The files under
``tests/goldens/`` pin it: a refactor of the planner, the batch placement
or the sharded path must leave them unchanged.

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
