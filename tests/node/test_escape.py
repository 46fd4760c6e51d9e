"""Tests for the escape-type secondary dispatch (paper Section 2.2.1)."""

import pytest

from repro.errors import MessageFormatError
from repro.kernels import protocol as P
from repro.nic.messages import (
    LAST_USER_TYPE,
    TYPE_EXCEPTION,
    Message,
    check_type,
    pack_destination,
)
from repro.node.handlers import DEFAULT_HANDLERS, handle_escape
from repro.node.node import Node


def escape_message(escape_id: int, payload: int = 0) -> Message:
    return Message(
        P.TYPE_ESCAPE, (pack_destination(0), payload, 0, 0, escape_id)
    )


class TestEscapeDispatch:
    def test_protocol_types_are_distinct_and_sendable(self):
        types = [
            P.TYPE_SEND,
            P.TYPE_READ,
            P.TYPE_WRITE,
            P.TYPE_PREAD,
            P.TYPE_PWRITE,
            P.TYPE_ESCAPE,
        ]
        for mtype in types:
            check_type(mtype)
        assert len(set(types)) == len(types)
        assert TYPE_EXCEPTION not in types
        assert P.TYPE_ESCAPE == LAST_USER_TYPE
        assert sorted(DEFAULT_HANDLERS) == sorted(types)
        assert DEFAULT_HANDLERS[P.TYPE_ESCAPE] is handle_escape

    def test_escape_handler_invoked_by_word4_id(self):
        node = Node(0)
        seen = []
        node.register_escape_handler(
            0xBEEF, lambda n, m: seen.append(m.word(1))
        )
        node.interface.deliver(escape_message(0xBEEF, payload=7))
        node.service()
        assert seen == [7]

    def test_two_escape_kinds_coexist(self):
        node = Node(0)
        seen = []
        node.register_escape_handler(1, lambda n, m: seen.append("one"))
        node.register_escape_handler(2, lambda n, m: seen.append("two"))
        node.interface.deliver(escape_message(2))
        node.interface.deliver(escape_message(1))
        node.service()
        assert seen == ["two", "one"]

    def test_unknown_escape_id_raises(self):
        node = Node(0)
        node.interface.deliver(escape_message(0x999))
        with pytest.raises(MessageFormatError):
            node.service_one()

    def test_duplicate_registration_rejected(self):
        node = Node(0)
        node.register_escape_handler(1, lambda n, m: None)
        with pytest.raises(MessageFormatError):
            node.register_escape_handler(1, lambda n, m: None)

    def test_escape_coexists_with_common_types(self):
        """Common kinds keep their fast 4-bit dispatch; rare kinds escape."""
        from repro.node.handlers import build_write_request

        node = Node(0)
        seen = []
        node.register_escape_handler(42, lambda n, m: seen.append("rare"))
        node.interface.deliver(build_write_request(0, 0x40, 5))
        node.interface.deliver(escape_message(42))
        node.service()
        assert node.memory.load(0x40) == 5
        assert seen == ["rare"]
