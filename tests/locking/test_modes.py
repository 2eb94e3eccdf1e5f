"""Tests for lock modes and compatibility protocols."""

import pytest

from repro.errors import TabsError
from repro.locking.modes import (
    INCREMENT,
    READ,
    READ_WRITE_INCREMENT_PROTOCOL,
    READ_WRITE_PROTOCOL,
    WRITE,
    LockMode,
    make_protocol,
)


def test_read_read_compatible():
    assert READ_WRITE_PROTOCOL.compatible(READ, READ)


@pytest.mark.parametrize("held,requested", [
    (READ, WRITE), (WRITE, READ), (WRITE, WRITE)])
def test_write_conflicts(held, requested):
    assert not READ_WRITE_PROTOCOL.compatible(held, requested)


def test_write_covers_read():
    assert READ_WRITE_PROTOCOL.covers(WRITE, READ)
    assert not READ_WRITE_PROTOCOL.covers(READ, WRITE)
    assert READ_WRITE_PROTOCOL.covers(READ, READ)


def test_unknown_mode_rejected():
    with pytest.raises(TabsError):
        READ_WRITE_PROTOCOL.check_mode(LockMode("ENQUEUE"))


def test_type_specific_protocol():
    """Weak-queue style protocol: concurrent enqueues commute."""
    protocol = make_protocol(
        "weak-queue", ("ENQUEUE", "DEQUEUE"), (("ENQUEUE", "ENQUEUE"),))
    enqueue = LockMode("ENQUEUE")
    dequeue = LockMode("DEQUEUE")
    assert protocol.compatible(enqueue, enqueue)
    assert not protocol.compatible(enqueue, dequeue)
    assert not protocol.compatible(dequeue, dequeue)


def test_protocol_rejects_undeclared_modes_in_pairs():
    with pytest.raises(TabsError):
        make_protocol("broken", ("A",), (("A", "B"),))


def test_asymmetric_protocol():
    """Intention-style protocols need not be symmetric."""
    protocol = make_protocol("asym", ("GIVE", "TAKE"), (("GIVE", "TAKE"),),
                             symmetric=False)
    give, take = LockMode("GIVE"), LockMode("TAKE")
    assert protocol.compatible(give, take)
    assert not protocol.compatible(take, give)


class TestReadWriteIncrement:
    """The branch/teller protocol: increments commute with each other
    and with nothing else."""

    MODES = (READ, WRITE, INCREMENT)

    def test_compatibility_table(self):
        compatible = {(held, requested)
                      for held in self.MODES for requested in self.MODES
                      if READ_WRITE_INCREMENT_PROTOCOL.compatible(
                          held, requested)}
        assert compatible == {(READ, READ), (INCREMENT, INCREMENT)}

    def test_covers_table(self):
        """WRITE grants everything; INCREMENT grants neither a read (the
        sum holds other transactions' uncommitted amounts) nor an
        overwrite; READ grants only itself."""
        covers = {(held, requested)
                  for held in self.MODES for requested in self.MODES
                  if READ_WRITE_INCREMENT_PROTOCOL.covers(held, requested)}
        assert covers == {(READ, READ), (INCREMENT, INCREMENT),
                          (WRITE, READ), (WRITE, WRITE), (WRITE, INCREMENT)}

    def test_shares_the_standard_modes(self):
        """Built from names, yet READ and WRITE are the library's own:
        a server on this protocol keeps using the shared constants."""
        READ_WRITE_INCREMENT_PROTOCOL.check_mode(READ)
        READ_WRITE_INCREMENT_PROTOCOL.check_mode(WRITE)
        with pytest.raises(TabsError):
            READ_WRITE_PROTOCOL.check_mode(INCREMENT)
