"""A simulated block device for the out-of-core pipeline.

GPUTeraSort's reader/writer stages move data "between disks and main memory
using direct memory access (DMA)" (paper Section 2.2).  The simulation keeps
record arrays in NumPy storage but routes every access through an explicit
block interface with seek and byte accounting, from which a simple
seek-time + bandwidth model produces I/O-time estimates -- enough to show
where an out-of-core sort spends its time (the GGKM05 point: with the GPU
doing the sorting, I/O dominates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SortInputError
from repro.stream.stream import concat_pairs, copy_pairs

__all__ = ["DiskStats", "SimulatedDisk"]


@dataclass
class DiskStats:
    """Access counters of one simulated disk."""

    reads: int = 0
    writes: int = 0
    seeks: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def add(self, charge: DiskStats) -> None:
        """Charge every counter of ``charge`` to this disk."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(charge, name))

    def io_time_ms(self, seek_ms: float = 8.0, bandwidth_mb_s: float = 60.0) -> float:
        """Modeled I/O wall time (2006-era commodity disk defaults)."""
        transfer = (self.bytes_read + self.bytes_written) / (bandwidth_mb_s * 1e6)
        return self.seeks * seek_ms + transfer * 1e3


class SimulatedDisk:
    """An append-or-overwrite block store over a single 8-byte element dtype.

    The element is ``VALUE_DTYPE`` in practice; records move in and out as
    ``uint64`` words (:func:`~repro.stream.stream.copy_pairs`).

    Access is sequential-friendly: a read or write that does not start where
    the previous access ended counts as a seek.  Files are named regions so
    the external sorter can keep input, runs, and output apart.
    """

    def __init__(self, dtype: np.dtype):
        self.dtype = np.dtype(dtype)
        self.stats = DiskStats()
        self._files: dict[str, np.ndarray] = {}
        self._head: tuple[str, int] | None = None

    def write_file(self, name: str, data: np.ndarray) -> None:
        """Create or replace a whole file (one sequential write)."""
        if data.dtype != self.dtype:
            raise SortInputError(
                f"disk stores {self.dtype}, got {data.dtype}"
            )
        self._files[name] = copy_pairs(data)
        self._account_write(name, 0, data.shape[0])

    def append(self, name: str, data: np.ndarray) -> None:
        """Append to a file (sequential if the head is already there)."""
        if data.dtype != self.dtype:
            raise SortInputError(f"disk stores {self.dtype}, got {data.dtype}")
        old = self._files.get(name)
        if old is None:
            self._files[name] = copy_pairs(data)
            self._account_write(name, 0, data.shape[0])
        else:
            offset = old.shape[0]
            self._files[name] = concat_pairs([old, data])
            self._account_write(name, offset, data.shape[0])

    def read(self, name: str, offset: int, count: int) -> np.ndarray:
        """Read ``count`` elements of ``name`` starting at ``offset``."""
        data = self._file(name)
        if not 0 <= offset <= data.shape[0]:
            raise SortInputError(
                f"read offset {offset} outside file {name!r} "
                f"of {data.shape[0]} elements"
            )
        count = min(count, data.shape[0] - offset)
        out = copy_pairs(data[offset : offset + count])
        self.stats.reads += 1
        self.stats.bytes_read += out.nbytes
        if self._head != (name, offset):
            self.stats.seeks += 1
        self._head = (name, offset + count)
        return out

    def peek(self, name: str) -> np.ndarray:
        """The file's entire contents, *uncharged* (no stats, head kept).

        This is a model-inspection hole, not a disk operation: the
        vectorized execution tier uses it to compute a merge result
        up front and then replay the reference tier's charged block
        accesses exactly.  Callers must treat the array as read-only.
        """
        return self._file(name)

    def size(self, name: str) -> int:
        """Element count of a file."""
        return self._file(name).shape[0]

    def files(self) -> list[str]:
        """Names of all files on the disk, sorted."""
        return sorted(self._files)

    def delete(self, name: str) -> None:
        """Remove a file (no I/O charged; deletion is metadata)."""
        self._file(name)
        del self._files[name]

    def _file(self, name: str) -> np.ndarray:
        try:
            return self._files[name]
        except KeyError:
            raise SortInputError(f"no such file on disk: {name!r}") from None

    def _account_write(self, name: str, offset: int, count: int) -> None:
        self.stats.writes += 1
        self.stats.bytes_written += count * self.dtype.itemsize
        if self._head != (name, offset):
            self.stats.seeks += 1
        self._head = (name, offset + count)
