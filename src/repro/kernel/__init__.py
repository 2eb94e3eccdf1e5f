"""Simulated Accent-kernel substrate.

TABS ran on the Accent operating-system kernel on Perq workstations.  This
package reproduces the slice of Accent that TABS depends on:

- ports with send/receive rights and typed messages
  (:mod:`repro.kernel.ports`, :mod:`repro.kernel.messages`),
- recoverable segments mapped into virtual memory with demand paging and
  pin/unpin control (:mod:`repro.kernel.vm`),
- a disk with per-sector header space for the operation-logging sequence
  number (:mod:`repro.kernel.disk`),
- the primitive-operation cost model of the paper's Tables 5-1 and 5-5
  (:mod:`repro.kernel.costs`),
- the :class:`Node` abstraction tying these together with crash/restart
  semantics (:mod:`repro.kernel.node`).
"""

from repro.kernel.costs import (
    ACHIEVABLE_1985,
    MEASURED_1985,
    ZERO_COST,
    CostMeter,
    CostProfile,
    CpuCosts,
    Phase,
    Primitive,
)
from repro.kernel.disk import PAGE_SIZE, Disk
from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.vm import ObjectID, RecoverableSegment, VirtualMemory

__all__ = [
    "ACHIEVABLE_1985", "MEASURED_1985", "ZERO_COST", "CostMeter",
    "CostProfile", "CpuCosts", "Phase", "Primitive", "PAGE_SIZE", "Disk",
    "Message", "MessageKind", "Node", "Port", "ObjectID",
    "RecoverableSegment", "VirtualMemory",
]
