"""Unit tests for typed-message classification."""

from repro.kernel.costs import Primitive
from repro.kernel.messages import (
    SMALL_MESSAGE_LIMIT,
    Message,
    MessageKind,
    classify_size,
)


def test_kind_to_primitive_mapping():
    assert MessageKind.SMALL.primitive is Primitive.SMALL_MESSAGE
    assert MessageKind.LARGE.primitive is Primitive.LARGE_MESSAGE
    assert MessageKind.POINTER.primitive is Primitive.POINTER_MESSAGE
    assert MessageKind.UNCHARGED.primitive is None


def test_paper_thresholds():
    """'Small messages typically contain less than 100 bytes, but in all
    cases have less than 500 bytes.'"""
    assert SMALL_MESSAGE_LIMIT == 500
    assert classify_size(99) is MessageKind.SMALL
    assert classify_size(499) is MessageKind.SMALL
    assert classify_size(500) is MessageKind.LARGE
    assert classify_size(1100) is MessageKind.LARGE  # the average large


def test_defaults():
    message = Message(op="ping")
    assert message.kind is MessageKind.SMALL
    assert message.tid is None
    assert message.reply_to is None
    assert message.sender_node == ""
