"""Typed messages, in the style of Accent.

Accent messages are arbitrarily long vectors of typed information addressed
to ports; large messages travel by copy-on-write remapping.  The paper's
cost model distinguishes three local message classes (Section 5.1):

- *small contiguous* -- less than 500 bytes (typically < 100),
- *large contiguous* -- about 1100 bytes on average,
- *pointer* -- a pointer to data transferred by copy-on-write remapping.

Every send names its :class:`MessageKind`, and the kind alone sets the
charge: no byte size is estimated.  A message may also carry a
transaction identifier; Communication Managers scan it to build the
two-phase-commit spanning tree (Section 3.2.4), exactly as in TABS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kernel.costs import Primitive

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.ports import Port


class MessageKind(enum.Enum):
    """The local message classes of the cost model."""

    #: identity hash (C fast path) -- members key the kind->primitive dict
    #: on every charged send; see :class:`repro.kernel.costs.Primitive`
    __hash__ = object.__hash__

    SMALL = "small"
    LARGE = "large"
    POINTER = "pointer"
    #: Not individually charged: its cost is folded into a composite
    #: primitive (e.g. the two halves of a Data Server Call), or the
    #: message never leaves the merged kernel (Section 5.3).
    UNCHARGED = "uncharged"

    @property
    def primitive(self) -> Primitive | None:
        return _KIND_TO_PRIMITIVE.get(self)


_KIND_TO_PRIMITIVE = {
    MessageKind.SMALL: Primitive.SMALL_MESSAGE,
    MessageKind.LARGE: Primitive.LARGE_MESSAGE,
    MessageKind.POINTER: Primitive.POINTER_MESSAGE,
}


@dataclass(slots=True)
class Message:
    """One message in flight between simulated processes."""

    op: str
    body: dict = field(default_factory=dict)
    reply_to: "Port | None" = None
    kind: MessageKind = MessageKind.SMALL
    #: Transaction this message acts on behalf of, if any.  Scanned by the
    #: Communication Manager when the message crosses nodes.
    tid: object = None
    sender_node: str = ""
    #: the sending process's causal context, stamped by the port at send
    #: (:meth:`repro.obs.tracer.Tracer.context`): the process that handles
    #: the message opens its spans under it.  0 untraced or context-less.
    trace_parent: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Message {self.op!r} {self.kind.value}"
                f"{' tid=' + str(self.tid) if self.tid is not None else ''}>")
