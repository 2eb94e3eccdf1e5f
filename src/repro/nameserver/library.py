"""The Name Server library (Table 3-3).

Three routines: ``Register(Name, Type, Port, ObjectID)``,
``DeRegister(Name, Port, ObjectID)``, and ``LookUp(Name, NodeName,
DesiredNumberOfPortIDs, MaxWait)``.  They exchange small messages with the
local Name Server's port; all are generators so callers pay the real
message latencies.
"""

from __future__ import annotations

from repro.errors import LookupFailed
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.service import request
from repro.rpc.stubs import ServiceRef
from repro.nameserver.server import SERVICE


class NameServerLibrary:
    """Client-side access to name dissemination, for one process."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.ctx = node.ctx

    def _request(self, op: str, body: dict):
        return request(self.node, self.node.service(SERVICE), op, body,
                       reply=f"ns-reply:{op}")

    def register(self, name: str, type_name: str, port: Port,
                 object_id: object = None):
        """Publish ``name`` -> <port, object id> on this node (generator)."""
        return self._request("ns.register", {
            "name": name, "type": type_name, "port": port,
            "object_id": object_id})

    def deregister(self, name: str, port: Port, object_id: object = None):
        """Withdraw one mapping (generator)."""
        return self._request("ns.deregister", {
            "name": name, "port": port, "object_id": object_id})

    def lookup(self, name: str, node_name: str = "", desired: int = 1,
               max_wait_ms: float = 1000.0):
        """Resolve ``name`` to up to ``desired`` service references.

        Generator returning a list of :class:`ServiceRef`.  Raises
        :class:`LookupFailed` when nothing was found anywhere (within
        ``max_wait_ms`` for the broadcast phase).
        """
        body = yield from self._request("ns.lookup", {
            "name": name, "node_name": node_name, "desired": desired,
            "max_wait_ms": max_wait_ms})
        refs: list[ServiceRef] = body["refs"]
        if not refs:
            raise LookupFailed(
                f"name {name!r} is not registered on any reachable node")
        return refs

    def lookup_one(self, name: str, node_name: str = "",
                   max_wait_ms: float = 1000.0):
        """Convenience: the first reference for ``name`` (generator)."""
        refs = yield from self.lookup(name, node_name=node_name,
                                      desired=1, max_wait_ms=max_wait_ms)
        return refs[0]
