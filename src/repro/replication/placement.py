"""Replica placement: which nodes hold copies of which key-space.

A *key-space* is a logical shard named after its data server (every
replica node runs a server of that name over its own recoverable
segment, so segment ids ``{node}:{name}`` stay unique).  A
:class:`PlacementMap` is immutable; a *run* changes placement by
installing a successor map under a new epoch number
(:class:`~repro.reconfig.epoch.PlacementEpoch`, ROADMAP item 5) --
workload builders still decide the initial map once at construction.

The replica list of a key-space is *ordered*: the first entry is the
shard's home (anchor) node.  Routing exploits the order for determinism
-- read-modify-write reads always lock the first available copy, so two
transactions contending for the same cell serialize at one site instead
of deadlocking across two.
"""

from __future__ import annotations

from repro.errors import TabsError


class PlacementMap:
    """An immutable key-space -> ordered replica-node-tuple mapping."""

    def __init__(self, assignments: dict[str, tuple[str, ...]]) -> None:
        if not assignments:
            raise TabsError("placement map has no key-spaces")
        self._assignments: dict[str, tuple[str, ...]] = {}
        for keyspace, nodes in assignments.items():
            nodes = tuple(nodes)
            if not nodes:
                raise TabsError(f"key-space {keyspace!r} has no replicas")
            if len(set(nodes)) != len(nodes):
                raise TabsError(f"key-space {keyspace!r} lists a replica "
                                "node twice")
            self._assignments[keyspace] = nodes

    def __contains__(self, keyspace: str) -> bool:
        return keyspace in self._assignments

    def replicas(self, keyspace: str) -> tuple[str, ...]:
        """The ordered replica nodes of ``keyspace`` (anchor first)."""
        try:
            return self._assignments[keyspace]
        except KeyError:
            raise TabsError(f"no placement for key-space "
                            f"{keyspace!r}") from None

    def keyspaces(self) -> list[str]:
        return list(self._assignments)

    def assignments(self) -> dict[str, tuple[str, ...]]:
        """A mutable copy of the full mapping (for building successors)."""
        return dict(self._assignments)

    def keyspaces_on(self, node: str) -> list[str]:
        """Every key-space with a copy on ``node``."""
        return [keyspace for keyspace, nodes in self._assignments.items()
                if node in nodes]

    def nodes(self) -> list[str]:
        """Every node holding at least one replica, sorted."""
        seen: set[str] = set()
        for nodes in self._assignments.values():
            seen.update(nodes)
        return sorted(seen)

    @classmethod
    def ring(cls, keyspaces: list[str], nodes: list[str],
             replication_factor: int,
             anchors: dict[str, int] | None = None) -> "PlacementMap":
        """Ring placement: each key-space anchors at a node and its extra
        copies go to the next nodes around the ring.

        ``anchors`` maps key-space -> node index (e.g. a branch's home
        node); unlisted key-spaces anchor round-robin by position.  The
        factor is clamped to the node count -- a copy per node is full
        replication.
        """
        if not nodes:
            raise TabsError("ring placement needs at least one node")
        factor = max(1, min(replication_factor, len(nodes)))
        anchors = anchors or {}
        assignments: dict[str, tuple[str, ...]] = {}
        for index, keyspace in enumerate(keyspaces):
            anchor = anchors.get(keyspace, index) % len(nodes)
            assignments[keyspace] = tuple(
                nodes[(anchor + step) % len(nodes)] for step in range(factor))
        return cls(assignments)
