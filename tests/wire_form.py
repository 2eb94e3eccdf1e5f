"""Every durable log record has a wire form: a session-wide round trip.

``LogStore.append`` encodes nothing: the record list is the log's
content, and a fault encodes the image it damages
(docs/STORAGE_INTEGRITY.md).  The guarantee that a durable record *can*
be framed is kept here instead, and made stronger: :func:`round_trip`
runs ``decode_record(encode_record(r)) == r`` on each record the instant
it turns durable.  ``tests/conftest.py`` installs it on every log store
the session builds, so every record any test's run makes durable is
checked -- the chaos goldens, the DebitCredit, replicated and reconfig
workloads, and the fourteen paper benchmarks
(``tests/wal/test_wire_form.py``) among them.

A failure is recorded, not raised: the observer runs inside a force
process, and a process may be defused.  The conftest's autouse fixture
fails the test that made the record durable.
"""

from repro.wal.codec import decode_record, encode_record
from repro.wal.store import LogStore

#: records the round trip has checked this session
checked = [0]
#: what failed the round trip since the last test ended
failures: list[str] = []


def round_trip(record) -> None:
    """A log-store observer: frame ``record`` and decode the frame."""
    checked[0] += 1
    try:
        decoded = decode_record(encode_record(record))
    except Exception as error:  # noqa: BLE001 - reported by the fixture
        failures.append(f"{record!r} has no wire form: {error}")
        return
    if decoded != record:
        failures.append(f"{record!r} decodes as {decoded!r}")


class _RoundTripFirst:
    """``LogStore.observers`` as a data descriptor: whatever list a store
    is given (its ``__init__`` assigns one) starts with :func:`round_trip`.

    A wrapper around ``LogStore.__init__`` would do the same, but then
    every store would be built by a test's frame, not the program's
    (``tests/reachability.py``).
    """

    def __set__(self, store, observers) -> None:
        store.__dict__["observers"] = [round_trip, *observers]

    def __get__(self, store, owner=None):
        if store is None:
            return self
        return store.__dict__["observers"]


def install() -> None:
    """Round-trip every record any log store built from now on makes
    durable."""
    LogStore.observers = _RoundTripFirst()


def take_failures() -> list[str]:
    """The round-trip failures since the last call, cleared."""
    taken = failures[:]
    failures.clear()
    return taken
