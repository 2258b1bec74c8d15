"""Run files: the hybrid layer's record format on the real filesystem.

A run file is a raw array of ``VALUE_DTYPE`` records (the float32 key +
uint32 id pairs every layer of the system sorts -- the same element
format :class:`repro.hybrid.disk.SimulatedDisk` stores), sorted by the
(key, id) total order.  Files are immutable: they are written once via
write-temp-then-rename and only ever deleted, never modified, which is
what makes the manifest's crash-safety story work.

Every helper takes an optional :class:`~repro.hybrid.disk.DiskStats` and
charges it with the access it models -- one seek per discontiguous
access plus the bytes moved -- so the store's telemetry prices its real
file traffic with the same 2006-era seek/bandwidth model the hybrid
out-of-core sorter uses.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.errors import StoreError
from repro.hybrid.disk import DiskStats
from repro.store.manifest import TMP_SUFFIX
from repro.stream.stream import PAIR_BYTES, VALUE_DTYPE

__all__ = [
    "write_run",
    "read_run",
    "read_run_slice",
    "bisect_run",
]


def write_run(path: Path, values: np.ndarray, stats: DiskStats | None = None) -> None:
    """Write a sorted ``VALUE_DTYPE`` array as an immutable run file.

    Crash-safe: the bytes land in ``<name>.tmp`` first and are renamed
    into place, so ``path`` either does not exist or is complete.
    """
    if values.dtype != VALUE_DTYPE:
        raise StoreError(f"run files store {VALUE_DTYPE}, got {values.dtype}")
    tmp = path.with_name(path.name + TMP_SUFFIX)
    tmp.write_bytes(values.tobytes())
    os.replace(tmp, path)
    if stats is not None:
        stats.writes += 1
        stats.seeks += 1
        stats.bytes_written += values.nbytes


def read_run(path: Path, n: int, stats: DiskStats | None = None) -> np.ndarray:
    """Read a whole run file, verifying it holds exactly ``n`` records."""
    try:
        size = path.stat().st_size
    except OSError as err:
        raise StoreError(f"cannot read run file {path}: {err}") from err
    if size != n * PAIR_BYTES:
        raise StoreError(
            f"run file {path.name} holds {size} bytes; manifest says "
            f"{n} records ({n * PAIR_BYTES} bytes)"
        )
    values = np.fromfile(path, dtype=VALUE_DTYPE)
    if stats is not None:
        stats.reads += 1
        stats.seeks += 1
        stats.bytes_read += values.nbytes
    return values


def read_run_slice(
    path: Path, offset: int, count: int, stats: DiskStats | None = None
) -> np.ndarray:
    """Read ``count`` records starting at record ``offset`` (one seek)."""
    if count <= 0:
        return np.empty(0, dtype=VALUE_DTYPE)
    values = np.fromfile(
        path, dtype=VALUE_DTYPE, count=count, offset=offset * PAIR_BYTES
    )
    if stats is not None:
        stats.reads += 1
        stats.seeks += 1
        stats.bytes_read += values.nbytes
    return values


def bisect_run(
    path: Path,
    n: int,
    key: float,
    side: str,
    stats: DiskStats | None = None,
) -> int:
    """Binary-search a sorted run file by key without reading it whole.

    Returns the leftmost index whose key is ``>= key`` (``side="left"``)
    or ``> key`` (``side="right"``) -- the on-disk analogue of
    :func:`numpy.searchsorted` -- probing one record per step, so a
    range query reads O(log n) records plus its result instead of the
    run.  Each probe is a discontiguous access: one seek plus one record
    of bytes.
    """
    if side not in ("left", "right"):
        raise StoreError(f"bisect side must be 'left' or 'right', got {side!r}")
    lo, hi = 0, n
    with path.open("rb") as handle:
        while lo < hi:
            mid = (lo + hi) // 2
            handle.seek(mid * PAIR_BYTES)
            record = np.frombuffer(handle.read(PAIR_BYTES), dtype=VALUE_DTYPE)
            if record.shape[0] != 1:
                raise StoreError(
                    f"run file {path.name} truncated at record {mid}"
                )
            if stats is not None:
                stats.reads += 1
                stats.seeks += 1
                stats.bytes_read += PAIR_BYTES
            probe = float(record["key"][0])
            if probe < key or (side == "right" and probe == key):
                lo = mid + 1
            else:
                hi = mid
    return lo
