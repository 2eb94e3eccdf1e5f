"""Deterministic discrete-event simulation engine.

This package is the substrate every other subsystem runs on.  It provides:

- :class:`Engine` -- the event loop with a simulated clock in milliseconds,
- :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` -- the
  waitable primitives,
- :class:`Process` -- a generator-based lightweight process that suspends by
  yielding events, and :func:`join_all`, which waits for several and
  names the first that failed.

The engine is fully deterministic: events scheduled for the same instant run
in schedule order, and no wall-clock time or OS threads are involved.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, join_all

__all__ = ["Engine", "Event", "Timeout", "AnyOf", "AllOf", "Process",
           "join_all"]
