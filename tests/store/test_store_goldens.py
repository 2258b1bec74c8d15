"""Byte goldens of one fixed CLI store session and its metrics exposition.

The session is five seeded ``store insert`` commands, then ``store
query``, ``store topk --k 5``, ``store compact --explain`` and ``store
stats``, all on one store handle.  That handle keeps a two-run cache
(4096 pairs over 2000-pair runs), so the queries and the compaction
cross both the cache-hit and the disk branch, and ``store stats`` and
the exposition report the whole session's counters.  The store
directory and the compaction's wall time are masked; everything else
is modeled or seeded, so deterministic to the byte.

``goldens/session.txt`` pins the CLI output and ``goldens/metrics.txt``
the exposition of the store's metrics after the session (names, help
text, order and values).  Regenerate after an intended change with::

    PYTHONPATH=src python tests/store/test_store_goldens.py regen
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import repro.__main__ as cli
from repro.obs.metrics import MetricsRegistry
from repro.store import SortedStore

GOLDEN_DIR = Path(__file__).parent / "goldens"
SESSION_GOLDEN = GOLDEN_DIR / "session.txt"
METRICS_GOLDEN = GOLDEN_DIR / "metrics.txt"

#: Pairs per insert, and a run cache that holds two such runs.
INSERT_N = 2000
CACHE_PAIRS = 4096

SESSION = [
    *(["store", "insert", "--n", str(INSERT_N), "--seed", str(seed)]
      for seed in range(1, 6)),
    ["store", "query", "--lo", "0.25", "--hi", "0.3"],
    ["store", "topk", "--k", "5"],
    ["store", "compact", "--explain"],
    ["store", "stats"],
]


def _session(path: Path) -> tuple[str, str]:
    """Run :data:`SESSION` on ``path``: (masked CLI output, exposition)."""
    store = SortedStore(path, cache_pairs=CACHE_PAIRS)
    opener = cli.SortedStore
    cli.SortedStore = lambda _path: store
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            for argv in SESSION:
                assert cli.main([*argv[:2], "--path", str(path), *argv[2:]]) == 0
    finally:
        cli.SortedStore = opener
    text = re.sub(r"wall \d+\.\d+ s", "wall <masked> s", out.getvalue())
    registry = MetricsRegistry()
    store.bind_metrics(registry)
    return text.replace(str(path), "<path>"), registry.expose()


def test_store_session_and_metrics_match_goldens(tmp_path):
    text, exposition = _session(tmp_path / "store")
    assert text == SESSION_GOLDEN.read_text()
    assert exposition == METRICS_GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] == ["regen"]:
        GOLDEN_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            text, exposition = _session(Path(tmp) / "store")
        SESSION_GOLDEN.write_text(text)
        METRICS_GOLDEN.write_text(exposition)
        print(f"regenerated {SESSION_GOLDEN.name} and {METRICS_GOLDEN.name}")
    else:
        print(__doc__)
