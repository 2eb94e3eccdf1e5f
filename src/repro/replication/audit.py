"""Single-copy-serializability audits for replicated runs.

The replicated cluster must be indistinguishable from a single-copy
one.  The workload-level conservation audits already check the *logical*
ledger; this module adds the replica-level check: after the run drains
and every recovering copy has caught up, all replicas of a key-space
must hold every cell identically, version and value -- a write has one
version at every copy it reaches.
"""

from __future__ import annotations

from repro.recovery.audit import AuditViolation


def replica_cells(tabs_node, server_name: str) -> dict[int, object]:
    """The current cell image of one replica: the non-volatile segment
    overlaid with resident page frames (which may be fresher)."""
    segment_id = f"{tabs_node.name}:{server_name}"
    cells: dict[int, object] = {}
    for data in tabs_node.node.disk.pages_of_segment(segment_id).values():
        for offset, value in data.items():
            if value is not None:
                cells[offset] = value
    for seg, page in tabs_node.node.vm.resident_pages():
        if seg != segment_id:
            continue
        frame = tabs_node.node.vm.frame(seg, page)
        for offset, value in frame.data.items():
            if value is None:
                cells.pop(offset, None)
            else:
                cells[offset] = value
    return cells


def audit_replica_convergence(cluster) -> list[AuditViolation]:
    """Every replica of every key-space holds every cell identically."""
    placement = cluster.placement
    violations: list[AuditViolation] = []
    if placement is None:
        return violations
    for keyspace in placement.keyspaces():
        replicas = placement.replicas(keyspace)
        if len(replicas) < 2:
            continue
        images = {node: replica_cells(cluster.node(node), keyspace)
                  for node in replicas}
        offsets: set[int] = set()
        for image in images.values():
            offsets.update(image)
        for offset in sorted(offsets):
            values = {node: image.get(offset)
                      for node, image in images.items()}
            if len(set(values.values())) > 1:
                violations.append(AuditViolation(
                    "replica-divergence",
                    detail=f"{keyspace!r} offset {offset}: {values!r}"))
    return violations
