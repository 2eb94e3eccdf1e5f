"""Generator-based lightweight processes.

A process wraps a Python generator.  The generator *yields* events to
suspend; when the event triggers, the generator is resumed with the event's
value (or the event's exception is thrown into it).  A process is itself an
:class:`Event` that succeeds with the generator's return value, so processes
can wait on each other.

Two forms of asynchronous termination exist, mirroring what the TABS
substrate needs:

- :meth:`Process.interrupt` throws :class:`repro.errors.Interrupt` into the
  generator at its current suspension point (nothing in the system calls
  it yet: lock and call time-outs race a :class:`Timeout` instead).
- :meth:`Process.kill` destroys the process without resuming it (used when a
  node crashes: its processes simply cease to exist).
"""

from __future__ import annotations

from typing import Generator

from repro.errors import Interrupt, ProcessKilled, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event


class Process(Event):
    """A lightweight simulated process driving a generator."""

    __slots__ = ("_gen", "_alive", "_waiting_on", "defused", "unjoinable",
                 "trace_stack")

    def __init__(self, engine: Engine, generator: Generator,
                 name: str = "") -> None:
        super().__init__(engine, name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {generator!r} -- did you "
                "forget to call the generator function?")
        self._gen = generator
        self._alive = True
        self._waiting_on: Event | None = None
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
        engine.schedule_now(self._advance, args=("send", None))

    # -- lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the generator can still run."""
        return self._alive

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self._alive:
            return
        self._detach_wait()
        self.engine.schedule_now(self._advance,
                                 args=("throw", Interrupt(cause)))

    def kill(self, reason: str = "killed") -> None:
        """Destroy the process without resuming it (node crash semantics)."""
        if not self._alive:
            return
        self._alive = False
        self._detach_wait()
        self._gen.close()
        self.defused = True
        if not self.triggered:
            self.fail(ProcessKilled(reason))

    # -- internals ----------------------------------------------------------

    def _detach_wait(self) -> None:
        # Wake-ups compare the firing event against ``_waiting_on`` by
        # identity, so clearing it makes any in-flight wake-up stale even
        # if the event already scheduled its callbacks.
        self._waiting_on = None

    def _advance(self, mode: str, value: object) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        engine = self.engine
        engine.active_process = self
        try:
            if mode == "send":
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
        if not isinstance(target, Event):
            self._alive = False
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an "
                "Event"))
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if not self._alive or event is not self._waiting_on:
            return  # stale wake-up: we were interrupted or killed meanwhile
        if event._ok:
            self._advance("send", event._value)
        else:
            assert isinstance(event._value, BaseException)
            self._advance("throw", event._value)

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
