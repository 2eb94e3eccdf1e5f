"""Deterministic discrete-event simulation engine.

This package is the substrate every other subsystem runs on.  It provides:

- :class:`Engine` -- the event loop with a simulated clock in milliseconds,
- :class:`Event`, :class:`Timeout` -- the waitable primitives,
- :class:`Process` -- a generator-based lightweight process that suspends by
  yielding an event, a delay to sleep, or :data:`PARKED` after
  :meth:`Process.park` (a wait whose ender resumes it directly), and
  :func:`join_all`, which waits for several and names the first that
  failed.

The engine is fully deterministic: events scheduled for the same instant run
in schedule order, and no wall-clock time or OS threads are involved.
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout
from repro.sim.process import PARKED, Process, join_all

__all__ = ["Engine", "Event", "Timeout", "PARKED", "Process", "join_all"]
