"""The Device abstraction: one modeled GPU with its own bus.

The paper sorts on *one* stream architecture; everything in
:mod:`repro.stream` was therefore written against a single implicit
:class:`~repro.stream.context.StreamMachine` plus a free-standing
:class:`~repro.stream.gpu_model.GPUModel`.  The cluster layer makes the
hardware explicit: a :class:`Device` is its index, a :class:`GPUModel`
(what the hardware cost model is parameterised on) and a
:class:`~repro.stream.transfer.TransferLink` (its own PCIe/AGP bus, with
modeled up/down bandwidth).  A device is a value and holds no log: the
machines a sort runs on belong to the sort's result
(:attr:`repro.cluster.sharded.ShardedSortResult.machines`).

:func:`make_devices` builds a homogeneous cluster from the paper's two
hardware models (Table 2's GeForce 6800 Ultra / AGP and Table 3's GeForce
7800 GTX / PCIe).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.stream.gpu_model import (
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    GPUModel,
    HostSystem,
)
from repro.stream.transfer import TransferLink, link_for_host

__all__ = ["Device", "make_devices"]


@dataclass(frozen=True)
class Device:
    """One simulated GPU: hardware model + transfer link."""

    index: int
    gpu: GPUModel
    link: TransferLink


def make_devices(
    count: int,
    *,
    gpu: GPUModel = GEFORCE_7800_GTX,
    host: HostSystem = PCIE_SYSTEM,
    link: TransferLink | None = None,
) -> list[Device]:
    """A homogeneous cluster of ``count`` devices.

    Every device's bus is modeled as *independent* -- transfers on one
    device never contend with another's, as on a machine where every card
    has its own slot.  The scheduler enforces this by keying transfer
    queues on the device, so the (immutable, stateless)
    :class:`TransferLink` object itself may be shared between devices.
    """
    if count < 1:
        raise ModelError(f"a cluster needs at least one device, got {count}")
    link = link or link_for_host(host)
    return [Device(index=i, gpu=gpu, link=link) for i in range(count)]
