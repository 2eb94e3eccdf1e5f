"""Epoch-versioned placement.

A :class:`PlacementEpoch` pairs an immutable
:class:`~repro.replication.placement.PlacementMap` with a monotonically
increasing epoch number.  Reconfiguration never mutates a map in place:
it builds a *successor* epoch (one higher, new map) and installs it on
the cluster and every node's replication runtime atomically from the
simulation's point of view.  The epoch number -- not the map identity --
is what transactions are validated against: a transaction stamped with
epoch N aborts at commit if the cluster moved to N+1 meanwhile, because
its reads and write fan-outs were routed by a map that no longer
describes where the data lives.

Epochs only ever go forward.  A migration *rollback* is itself a new
epoch whose map content equals the pre-migration one -- going back to
an old number would let a transaction stamped under the aborted epoch
slip through validation.
"""

from __future__ import annotations

from repro.errors import TabsError
from repro.replication.placement import PlacementMap


class PlacementEpoch:
    """An immutable (epoch number, placement map) pair."""

    __slots__ = ("epoch", "placement")

    def __init__(self, epoch: int, placement: PlacementMap) -> None:
        if epoch < 0:
            raise TabsError("placement epoch must be >= 0")
        self.epoch = epoch
        self.placement = placement

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PlacementEpoch({self.epoch}, "
                f"{len(self.placement)} key-spaces)")

    def replicas(self, keyspace: str) -> tuple[str, ...]:
        return self.placement.replicas(keyspace)

    # -- successor builders ------------------------------------------------------

    def successor(self, assignments: dict[str, tuple[str, ...]]
                  ) -> "PlacementEpoch":
        """The next epoch with a fully spelled-out map."""
        return PlacementEpoch(self.epoch + 1, PlacementMap(assignments))

    def with_replicas(self, keyspace: str,
                      replicas: tuple[str, ...]) -> "PlacementEpoch":
        """Successor with one key-space's replica tuple replaced."""
        assignments = self.placement.assignments()
        if keyspace not in assignments:
            raise TabsError(f"no placement for key-space {keyspace!r}")
        assignments[keyspace] = tuple(replicas)
        return self.successor(assignments)
