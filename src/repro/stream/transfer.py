"""CPU<->GPU transfer links: modeled up/down bus bandwidth per device.

Section 8 of the paper reports the cost of moving sort input to the GPU and
the sorted output back: "the transfer of 2^20 value/pointer pairs from CPU
to GPU and back takes in total roughly 100 ms on our AGP bus PC and roughly
20 ms on our PCI Express bus PC" -- and Section 7's practical remedy is to
*overlap* those transfers with sorting, uploading the next chunk and
downloading the previous one while the GPU sorts the current one.

:class:`TransferLink` is the first-class home of that bus model.  Each
simulated device (see :mod:`repro.cluster.device`) owns one link with
separate **upload** and **download** channels:

* the two directions may have different bandwidths (AGP's readback path was
  famously slower than its upload path; PCI Express is symmetric);
* the two channels are full duplex -- an upload and a download may be in
  flight simultaneously, which the cluster scheduler exploits;
* a small per-transfer latency models driver/DMA-setup cost of issuing one
  transfer.

The presets are calibrated so that a full round trip (upload + download of
the same payload) reproduces the paper's ~100 ms (AGP) and ~20 ms (PCIe)
figures for 2^20 pairs exactly, matching
:func:`repro.stream.gpu_model.transfer_round_trip_ms`: the directional
bandwidths satisfy ``1/up + 1/down == 2/bus_roundtrip``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.stream.gpu_model import AGP_SYSTEM, PCIE_SYSTEM, HostSystem
from repro.stream.stream import PAIR_BYTES

__all__ = [
    "TransferLink",
    "link_for_host",
    "AGP_LINK",
    "PCIE_LINK",
]


@dataclass(frozen=True)
class TransferLink:
    """A host<->device bus with independent up/down channels."""

    name: str
    #: CPU -> GPU (upload) bandwidth.
    up_gb_s: float
    #: GPU -> CPU (download / readback) bandwidth.
    down_gb_s: float
    #: Per-transfer issue latency (driver + DMA setup), each direction.
    latency_us: float = 0.0

    def __post_init__(self):
        if self.up_gb_s <= 0 or self.down_gb_s <= 0:
            raise ModelError("link bandwidths must be positive")
        if self.latency_us < 0:
            raise ModelError("link latency must be non-negative")

    def upload_ms(self, nbytes: int) -> float:
        """Modeled milliseconds to move ``nbytes`` CPU -> GPU."""
        return self._one_way_ms(nbytes, self.up_gb_s)

    def download_ms(self, nbytes: int) -> float:
        """Modeled milliseconds to move ``nbytes`` GPU -> CPU."""
        return self._one_way_ms(nbytes, self.down_gb_s)

    def round_trip_ms(self, n_pairs: int) -> float:
        """Upload + download of ``n_pairs`` value/pointer pairs.

        With the calibrated presets this reproduces the paper's Section-8
        round-trip figures (~100 ms AGP / ~20 ms PCIe for 2^20 pairs).
        """
        nbytes = n_pairs * PAIR_BYTES
        return self.upload_ms(nbytes) + self.download_ms(nbytes)

    def _one_way_ms(self, nbytes: int, gb_s: float) -> float:
        if nbytes < 0:
            raise ModelError("transfer size must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.latency_us * 1e-3 + nbytes / (gb_s * 1e9) * 1e3


def link_for_host(host: HostSystem) -> TransferLink:
    """The transfer link of a modeled host system.

    The known hosts get their calibrated asymmetric/symmetric presets; any
    other :class:`HostSystem` gets a symmetric link at its round-trip
    bandwidth (which preserves the round-trip time by construction).
    """
    if host.bus_name == AGP_SYSTEM.bus_name:
        return AGP_LINK
    if host.bus_name == PCIE_SYSTEM.bus_name:
        return PCIE_LINK
    return TransferLink(
        name=host.bus_name,
        up_gb_s=host.bus_roundtrip_gb_s,
        down_gb_s=host.bus_roundtrip_gb_s,
    )


#: AGP 8x: fast upload, slow readback (the era's well-known asymmetry).
#: 1/0.42 + 1/0.105 == 2/0.168, so the 2^20-pair round trip stays ~100 ms.
AGP_LINK = TransferLink(name=AGP_SYSTEM.bus_name, up_gb_s=0.42, down_gb_s=0.105)

#: PCI Express x16: symmetric; the 2^20-pair round trip stays ~20 ms.
PCIE_LINK = TransferLink(
    name=PCIE_SYSTEM.bus_name,
    up_gb_s=PCIE_SYSTEM.bus_roundtrip_gb_s,
    down_gb_s=PCIE_SYSTEM.bus_roundtrip_gb_s,
)
