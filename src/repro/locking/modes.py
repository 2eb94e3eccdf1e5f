"""Lock modes and compatibility protocols.

The server library supports the standard shared/exclusive (read/write)
protocol out of the box, and data servers may define *type-specific* lock
modes with their own compatibility relation to get more concurrency
(Section 2.1.3; Korth; Schwarz & Spector).  A compatibility relation answers
one question: may a lock in ``requested`` mode be granted while another
transaction holds a lock in ``held`` mode?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TabsError


@dataclass(frozen=True)
class LockMode:
    """A named lock mode (e.g. READ, WRITE, ENQUEUE)."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


READ = LockMode("READ")
WRITE = LockMode("WRITE")
#: a commuting update (``x += delta``): any number of transactions may
#: hold it together, nobody may read or overwrite beneath them
INCREMENT = LockMode("INCREMENT")


class CompatibilityMatrix:
    """A compatibility relation over a fixed set of lock modes.

    ``compatible[(held, requested)]`` need not be symmetric, though the
    standard protocols are.  Unlisted pairs are incompatible, which is the
    safe default for type-specific protocols.
    """

    def __init__(self, name: str, modes: tuple[LockMode, ...],
                 compatible_pairs: frozenset[tuple[LockMode, LockMode]]):
        self.name = name
        self.modes = modes
        self._compatible = set(compatible_pairs)
        for held, requested in compatible_pairs:
            if held not in modes or requested not in modes:
                raise TabsError(
                    f"protocol {name!r}: pair ({held}, {requested}) uses "
                    "an undeclared mode")

    def check_mode(self, mode: LockMode) -> None:
        if mode not in self.modes:
            raise TabsError(
                f"mode {mode!r} is not part of protocol {self.name!r}")

    def compatible(self, held: LockMode, requested: LockMode) -> bool:
        """May ``requested`` be granted to one transaction while another
        holds ``held``?  (Locks held by the *same* transaction are always
        mutually compatible; the lock manager handles that case.)"""
        return (held, requested) in self._compatible

    def covers(self, held: LockMode, requested: LockMode) -> bool:
        """Does holding ``held`` already grant the rights of ``requested``?

        Used for lock conversion: a transaction holding WRITE need not
        acquire READ.  A mode covers another when everything incompatible
        with the weaker mode is also incompatible with the stronger one.
        """
        if held == requested:
            return True
        # held is at least as restrictive as requested when every mode that
        # may run beside held may also run beside requested.
        return all(self.compatible(other, requested)
                   for other in self.modes if self.compatible(other, held))


def _symmetric(*pairs: tuple[LockMode, LockMode]) -> frozenset:
    closure = set()
    for a, b in pairs:
        closure.add((a, b))
        closure.add((b, a))
    return frozenset(closure)


#: The standard shared/exclusive protocol: readers share, writers exclude.
READ_WRITE_PROTOCOL = CompatibilityMatrix(
    "read/write", (READ, WRITE), _symmetric((READ, READ)))


def make_protocol(name: str, mode_names: tuple[str, ...],
                  compatible_pairs: tuple[tuple[str, str], ...],
                  symmetric: bool = True) -> CompatibilityMatrix:
    """Build a type-specific protocol from mode names.

    Example -- a directory protocol where inserts of *different* keys
    commute is expressed at the key level instead, but a weak-queue protocol
    where ENQUEUE operations commute with each other looks like::

        make_protocol("weak-queue", ("ENQUEUE", "DEQUEUE", "READ"),
                      (("ENQUEUE", "ENQUEUE"),))
    """
    modes = {n: LockMode(n) for n in mode_names}
    for a, b in compatible_pairs:
        if a not in modes or b not in modes:
            raise TabsError(
                f"protocol {name!r}: pair ({a!r}, {b!r}) uses an undeclared "
                "mode")
    pairs = [(modes[a], modes[b]) for a, b in compatible_pairs]
    closure = _symmetric(*pairs) if symmetric else frozenset(pairs)
    return CompatibilityMatrix(name, tuple(modes.values()), closure)


#: Shared/exclusive plus commuting increments (Section 2.1.3's "type-
#: specific locking"): increments of one object commute, so INCREMENT is
#: compatible with itself -- and with nothing else, because a reader
#: would see, and a writer would bury, an uncommitted sum.  INCREMENT
#: covers neither READ nor WRITE; WRITE covers all three.
READ_WRITE_INCREMENT_PROTOCOL = make_protocol(
    "read/write/increment", ("READ", "WRITE", "INCREMENT"),
    (("READ", "READ"), ("INCREMENT", "INCREMENT")))
