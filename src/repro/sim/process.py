"""Generator-based lightweight processes.

A process wraps a Python generator.  The generator *yields* to suspend,
in one of three ways:

- an :class:`Event` -- resumed with the event's value once it is
  processed (or the event's exception is thrown into it);
- a number -- a sleep: resumed after that many simulated milliseconds
  (``yield ctx.cpu(...)``, ``yield RETRY_MS``);
- :data:`PARKED` -- a wait the process arranged itself with
  :meth:`Process.park`: whoever ends it resumes the process directly
  (:meth:`Process.end`, :meth:`Process.wake`, :meth:`Process.wake_last`),
  or the deadline does, with None.

A sleep or a park is a wait with one waiter, so it allocates no event:
the queue entry that ends it resumes the process (docs/SIMULATOR.md "A
wait with one waiter needs no event").  A process is itself an
:class:`Event` that succeeds with the generator's return value, so
processes can wait on each other.

:meth:`Process.kill` destroys the process without resuming it (used
when a node crashes: its processes simply cease to exist).
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ProcessKilled, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event


class _Parked:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PARKED"


#: what a process yields after :meth:`Process.park`: its wake-up is
#: already arranged
PARKED = _Parked()


class Process(Event):
    """A lightweight simulated process driving a generator."""

    __slots__ = ("_gen", "_alive", "_token", "_hop", "defused",
                 "unjoinable", "trace_stack")

    def __init__(self, engine: Engine, generator: Generator,
                 name: str = "") -> None:
        super().__init__(engine, name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {generator!r} -- did you "
                "forget to call the generator function?")
        self._gen = generator
        self._alive = True
        #: the current park's token; ending the wait or killing the
        #: process moves it on, which makes every wake-up still in
        #: flight for that wait stale
        self._token = 0
        #: the current park has a deadline, so ending it takes the hop
        #: a race between the awaited event and a timeout took
        self._hop = False
        #: Set True to suppress the unhandled-failure crash (e.g. for
        #: processes whose failure is expected and observed elsewhere).
        self.defused = False
        #: Set True by a spawner that keeps no reference to the process, so
        #: nobody can join it: a successful finish with no observer then
        #: queues no entry to run no callbacks.
        self.unjoinable = False
        #: the causal context this process opens trace spans in: the span
        #: id the message that started it carried (0 for none), then the
        #: spans it has open, innermost last; None until traced
        #: (:mod:`repro.obs.tracer`)
        self.trace_stack: list[int] | None = None
        engine.schedule_now(self._advance)

    # -- lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the generator can still run."""
        return self._alive

    def kill(self, reason: str = "killed") -> None:
        """Destroy the process without resuming it (node crash semantics)."""
        if not self._alive:
            return
        self._alive = False
        self._token += 1
        self._gen.close()
        self.defused = True
        if not self.triggered:
            self.fail(ProcessKilled(reason))

    # -- waits with one waiter ----------------------------------------------

    def park(self, deadline_ms: float | None = None) -> int:
        """Begin a wait the caller hands to whoever will end it, and
        return its token; the process then yields :data:`PARKED`.

        The wait ends with the first of an :meth:`end` / :meth:`wake` /
        :meth:`wake_last` under the token and, with ``deadline_ms``, the
        deadline, which resumes the process with None.  Parking schedules
        only the deadline, so the token counts parks, not queue entries.
        """
        token = self._token = self._token + 1
        if deadline_ms is None:
            self._hop = False
        else:
            self._hop = True
            self.engine.schedule(deadline_ms, self._expire, args=(token,))
        return token

    def wake(self, token: int, value: object = None, ok: bool = True) -> None:
        """End the wait ``token`` with ``value`` (an exception to raise
        when not ``ok``) in a queue entry of its own, where the awaited
        event's :meth:`~Event.succeed` / :meth:`~Event.fail` would have
        run its callbacks.  A stale token queues nothing."""
        if token == self._token:
            self.engine.schedule_now(self.end, args=(token, value, ok))

    def wake_last(self, token: int, value: object) -> None:
        """:meth:`wake` as the last act of the running queue entry
        (:meth:`~Event.succeed_last`).  Run in place
        (:meth:`~repro.sim.engine.Engine.run_due_next`), the process
        resumes here even with a deadline, as the hop :meth:`end` would
        queue would have been the next entry too; queued, it is
        :meth:`end`."""
        if token == self._token:
            self.engine.run_due_next(self._resume, (token, value), self.end)

    def end(self, token: int, value: object = None, ok: bool = True) -> None:
        """End the wait ``token`` in the running entry, as the awaited
        event's callbacks would run here.  With a deadline the process
        resumes in an entry of its own: the hop the race's winner took.
        A stale token does nothing."""
        if token != self._token:
            return
        self._token = token + 1
        if self._hop:
            self.engine.schedule_now(self._advance, args=(value, ok))
        else:
            self._advance(value, ok)

    def _resume(self, token: int, value: object) -> None:
        """:meth:`end` without the hop: :meth:`wake_last` in place."""
        self._token = token + 1
        self._advance(value)

    def _expire(self, token: int) -> None:
        """The deadline: a timeout firing (:meth:`~Event.succeed_last`)
        whose callbacks end the wait -- unless the wait already ended."""
        if token == self._token:
            self.engine.run_due_next(self.end, (token,))

    def _slept(self) -> None:
        """A sleep's end, a timeout firing with this process as its one
        waiter."""
        if self._alive:
            self.engine.run_due_next(self._advance)

    # -- internals ----------------------------------------------------------

    def _advance(self, value: object = None, ok: bool = True) -> None:
        if not self._alive:
            return
        engine = self.engine
        if engine.profiler is not None and engine.profiler.running is not self:
            # times this resumption, then calls back here to run it
            return engine.profiler.resume(self, self._advance, (value, ok))
        engine.active_process = self
        try:
            if ok:
                target = self._gen.send(value)
            else:
                assert isinstance(value, BaseException)
                target = self._gen.throw(value)
        except StopIteration as stop:
            self._alive = False
            if self.unjoinable and self._callbacks is None:
                self._ok = True
                self._value = stop.value
                self._processed = True
            else:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process body failed
            self._alive = False
            self.fail(exc)
            return
        finally:
            engine.active_process = None
        cls = target.__class__
        if (cls is float or cls is int) and target >= 0:
            engine.schedule(target, self._slept)
        elif target is PARKED:
            pass
        elif isinstance(target, Event):
            target.add_callback(self._on_event)
        else:
            self._alive = False
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an "
                "Event, a delay or PARKED"))

    def _on_event(self, event: Event) -> None:
        self._advance(event._value, event._ok)

    def _run_callbacks(self) -> None:
        had_observers = bool(self._callbacks)
        super()._run_callbacks()
        if not self.ok and not had_observers and not self.defused:
            # A process died with an exception nobody was waiting for: crash
            # the simulation loudly rather than losing the error.
            assert isinstance(self._value, BaseException)
            raise self._value


def join_all(processes) -> Generator:
    """Wait until every one of ``processes`` has finished (generator).

    Returns ``(process, error)`` for the first of them, in the order
    given, that failed -- or None.
    """
    failed = None
    for process in processes:
        try:
            yield process
        except Exception as error:  # noqa: BLE001 - returned
            if failed is None:
                failed = (process, error)
    return failed
