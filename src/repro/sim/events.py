"""Waitable events for the simulation engine.

An :class:`Event` moves through three states:

``pending`` -> ``triggered`` (succeed/fail called, callbacks scheduled)
-> ``processed`` (callbacks have run).  A wake-up due next
(:meth:`Event.succeed_last`) goes straight from pending to processed.

Processes wait on events by yielding them; a wait with one waiter -- a
sleep, a reply, a lock -- needs none (see :mod:`repro.sim.process`).

Events are allocated on hot paths, so the classes are
slotted, the observer list is allocated lazily (most events are waited on
by at most one observer, many by none), and default names are computed
lazily (the f-string only materialises when a profiler or repr asks).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.sim.engine import Engine

_PENDING = object()


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on."""

    __slots__ = ("engine", "_name", "_value", "_ok", "_callbacks",
                 "_processed")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self._name = name
        self._value: object = _PENDING
        self._ok: bool | None = None
        #: observer list, allocated on first add_callback; None while the
        #: event has no observers *and* after the callbacks have run
        #: (``_processed`` tells the two apart)
        self._callbacks: list[Callable[[Event], None]] | None = None
        self._processed = False

    # -- state ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def triggered(self) -> bool:
        """True once succeed() or fail() has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    def result(self) -> object:
        """The event's value; re-raises its exception if it failed."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        if not self._ok:
            assert isinstance(self._value, BaseException)
            raise self._value
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Inlines :meth:`_trigger`: every completed wait in the simulation
        funnels through here.
        """
        if self._ok is not None:
            raise SimulationError(f"event {self!r} triggered twice")
        self._ok = True
        self._value = value
        self.engine.schedule_now(self._run_callbacks)
        return self

    def succeed_last(self, value: object = None) -> None:
        """:meth:`succeed` as the last act of the running queue entry.

        When no other entry is due at this instant, the entry
        :meth:`succeed` would queue is the next to pop, so the callbacks
        run here instead, at the same place in the order and without a
        queue entry of their own.  Callers: a :class:`Timeout` firing and
        a port delivering to a waiting ``receive()``; a process's own
        waits follow the same rule (:meth:`repro.sim.Process.wake_last`).
        """
        if self._ok is not None:
            raise SimulationError(f"event {self!r} triggered twice")
        self._ok = True
        self._value = value
        engine = self.engine
        heap = engine._heap
        if heap and heap[0][0] <= engine._now:
            engine.schedule_now(self._run_callbacks)
        else:
            # the key the queued entry would have had (Engine.running_key)
            engine._seq = engine.events_scheduled - 0.5
            self._run_callbacks()

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: object) -> None:
        if self._ok is not None:
            raise SimulationError(f"event {self!r} triggered twice")
        self._ok = ok
        self._value = value
        self.engine.schedule_now(self._run_callbacks)

    def _run_callbacks(self) -> None:
        callbacks = self._callbacks
        self._callbacks = None
        self._processed = True
        if callbacks is not None:
            for callback in callbacks:
                callback(self)

    # -- observers --------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` once the event is processed.

        If the event has already been processed the callback is scheduled to
        run at the current instant, preserving run-to-completion semantics.
        """
        if self._processed:
            self.engine.schedule_now(callback, args=(self,))
        else:
            callbacks = self._callbacks
            if callbacks is None:
                self._callbacks = [callback]
            else:
                callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay.

    A process that only sleeps yields the delay instead
    (:mod:`repro.sim.process`); this is for a caller that needs the event.
    """

    __slots__ = ("delay", "_timeout_value")

    def __init__(self, engine: Engine, delay: float, value: object = None,
                 name: str = "") -> None:
        super().__init__(engine, name)
        self.delay = delay
        self._timeout_value = value
        engine.schedule(delay, self._fire)

    @property
    def name(self) -> str:
        # The default label is derived lazily: the unprofiled hot path
        # never pays for the f-string.
        return self._name or f"timeout({self.delay})"

    def _fire(self) -> None:
        self.succeed_last(self._timeout_value)
