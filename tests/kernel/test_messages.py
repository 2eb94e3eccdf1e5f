"""Unit tests for typed-message classification."""

from repro.kernel.costs import Primitive
from repro.kernel.messages import Message, MessageKind


def test_kind_to_primitive_mapping():
    assert MessageKind.SMALL.primitive is Primitive.SMALL_MESSAGE
    assert MessageKind.LARGE.primitive is Primitive.LARGE_MESSAGE
    assert MessageKind.POINTER.primitive is Primitive.POINTER_MESSAGE
    assert MessageKind.UNCHARGED.primitive is None


def test_defaults():
    message = Message(op="ping")
    assert message.kind is MessageKind.SMALL
    assert message.tid is None
    assert message.reply_to is None
    assert message.sender_node == ""
