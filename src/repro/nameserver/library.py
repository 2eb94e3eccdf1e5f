"""The Name Server library (Table 3-3).

Three routines: ``Register(Name, Type, Port, ObjectID)``,
``DeRegister(Name, Port, ObjectID)``, and ``LookUp(Name, NodeName,
DesiredNumberOfPortIDs, MaxWait)``.  They exchange small messages with the
local Name Server's port; all are generators so callers pay the real
message latencies.

The paper's applications look a server up once and keep the port.
:meth:`NameServerLibrary.lookup_one` does that keeping for every caller on
the node: what it resolved stays in ``Node.bindings`` until the port dies.
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
        """Withdraw one mapping, and this node's bindings to it (generator)."""
        bindings = self.node.bindings
        for key in [key for key, ref in bindings.items()
                    if key[0] == name and ref.port is port]:
            del bindings[key]
        return self._request("ns.deregister", {
            "name": name, "port": port, "object_id": object_id})

    def lookup(self, name: str, node_name: str = "", desired: int = 1,
               max_wait_ms: float = 1000.0):
        """Resolve ``name`` to up to ``desired`` service references.

        Generator returning a list of :class:`ServiceRef`.  Raises
        :class:`LookupFailed` when nothing was found anywhere (within
        ``max_wait_ms`` for the broadcast phase).  Table 3-3's ``LookUp``:
        it asks the Name Server every time and keeps nothing.
        """
        self.ctx.metrics.counter(self.node.name, "ns.lookups").inc()
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
        """Bind to ``name``: one reference, resolved once (generator).

        Returns the reference this node already holds for
        ``(name, node_name)`` while its port is alive -- no message, no
        simulated time -- and otherwise does one :meth:`lookup` and keeps
        the answer in ``Node.bindings``.  A destroyed server port, a
        crashed or restarted serving node (ports die with their node's
        epoch) and a crash of this node (the table is volatile) all lead
        back to the Name Server; a failed lookup binds nothing.
        """
        bindings = self.node.bindings
        ref = bindings.get((name, node_name))
        if ref is not None and ref.port.alive:
            self.ctx.metrics.counter(self.node.name, "ns.bind_hits").inc()
            return ref
        refs = yield from self.lookup(name, node_name=node_name,
                                      desired=1, max_wait_ms=max_wait_ms)
        bindings[(name, node_name)] = refs[0]
        return refs[0]
