"""The discrete-event simulation loop.

Time is a float measured in *milliseconds* to match the units of the paper's
Table 5-1 primitive-operation times.  The engine keeps one binary heap of
``(time, sequence, callback, args, daemon)`` entries; the sequence number
makes same-time ordering deterministic (FIFO in schedule order).  The
*relative* ``(time, seq)`` order of the entries that run is the whole
determinism contract -- every golden digest and bench baseline rests on it
and on nothing else about the queue.  The sequence values themselves are
not part of it: a wake-up due next runs inside the entry that caused it
(:meth:`Engine.run_due_next`, the one place that rule lives), a wait with
one waiter resumes its process from the entry that ends it and allocates
no event (:meth:`repro.sim.Process.park`), and a message handler's finish
queues nothing (``Process.unjoinable``); each shifts later values down
and swaps no two entries (docs/SIMULATOR.md).

A caller may take a sequence number ahead of its entry
(:meth:`Engine.reserve`) and queue the entry at that key later
(:meth:`Engine.push`), as long as the key still lies ahead of the entry
that is running (:attr:`Engine.running_key`): the entry then runs where
it would have run had it been queued when the number was taken.  The
steady heartbeat fabric (:mod:`repro.comm.failures`) queues the probes it
skipped this way when a fault ends its steady state.

Daemon entries are background housekeeping -- failure-detector probe ticks,
mainly -- that must never keep the simulation "busy": ``run()``, ``drain()``
and ``run_until()`` treat the queue as quiescent once only daemon entries
remain, exactly as daemon threads do not keep a process alive.  While real
work is in flight, daemon entries execute normally and interleave
deterministically with it.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from math import inf as _INF
from typing import TYPE_CHECKING, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.obs.profile import SimProfiler
    from repro.sim.events import Event
    from repro.sim.process import Process

#: the shared empty argument tuple for argument-free callbacks
_NO_ARGS: tuple = ()


class Engine:
    """A deterministic event loop with a simulated millisecond clock."""

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, seq, callback, args, daemon)`` entries; ``(time, seq)``
        #: is unique, so comparisons never reach the callback
        self._heap: list[tuple[float, int, Callable[..., None], tuple,
                               bool]] = []
        #: queued entries that are *not* daemons; quiescence means zero
        self._real = 0
        self._running = False
        #: the sequence half of :attr:`running_key` (-1 before any entry)
        self._seq: float = -1
        #: fabric churn accounting -- always on (plain integer bumps), read
        #: by the sim-speed meta-benchmark and the profiler snapshot.  Kept
        #: off the metrics registry so its snapshot (golden-hashed by the
        #: determinism suite) is unchanged.  ``events_scheduled`` doubles as
        #: the next entry's sequence number.
        self.events_scheduled = 0
        self.daemon_scheduled = 0
        self.events_executed = 0
        self.daemon_executed = 0
        self.heap_high_water = 0
        #: wall-clock profiler or None; the dispatch loop and each entry
        #: into a causal context (``Process._advance``,
        #: ``Service._handle``) guard on it, so the disabled path costs
        #: one attribute check per entry and per resumption, mirroring
        #: ``ctx.tracer``
        self.profiler: SimProfiler | None = None
        #: each called as ``latest(deadline)``: the latest instant, at or
        #: before ``deadline``, of a daemon entry its owner skipped rather
        #: than queued (the steady heartbeat fabric's probes), or -inf
        self.skipped: list[Callable[[float], float]] = []
        #: the causal context running right now -- a process resuming,
        #: or a never-waiting handler's (:mod:`repro.kernel.service`) --
        #: or None while a plain callback runs
        self.active_process: Process | None = None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def running_key(self) -> tuple[float, float]:
        """The ``(time, seq)`` key of the code running now.

        Inside an entry it is that entry's key.  A wake-up run in the
        entry that caused it (:meth:`run_due_next`) sorts where its
        queued entry would have: after every entry queued before it and
        before every one queued after (``seq - 0.5``).
        Between runs it is the key of the last entry that ran, or
        ``(now, +inf)`` once every entry due by ``now`` has run (after
        ``run(until)``, or a ``drain`` that gave up).  Every entry at a
        later key has yet to run.
        """
        return (self._now, self._seq)

    def reserve(self) -> int:
        """Take the next sequence number for an entry queued later by
        :meth:`push`."""
        seq = self.events_scheduled
        self.events_scheduled = seq + 1
        return seq

    def push(self, time: float, seq: int, callback: Callable[..., None],
             args: tuple = _NO_ARGS) -> None:
        """Queue a daemon entry at a key taken earlier by :meth:`reserve`.

        The key must lie ahead of :attr:`running_key`: an entry cannot be
        placed where the queue has already been.
        """
        if not (time, seq) > (self._now, self._seq):
            raise SimulationError(
                f"cannot push at ({time}, {seq}): the queue is already at "
                f"({self._now}, {self._seq})")
        heap = self._heap
        _heappush(heap, (time, seq, callback, args, True))
        self.daemon_scheduled += 1
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def schedule(self, delay: float, callback: Callable[..., None],
                 daemon: bool = False, args: tuple = _NO_ARGS) -> None:
        """Run ``callback(*args)`` after ``delay`` milliseconds of simulated
        time.

        ``args`` lets hot callers schedule a bound method plus arguments
        instead of allocating a closure per event.  A ``daemon`` entry never
        counts toward quiescence: ``run()`` with no deadline, ``drain()``
        and ``run_until()`` all ignore it when deciding whether the
        simulation has gone quiet.
        """
        # Not ``delay < 0``: NaN must fail too, or its key would break the
        # heap's total order without an error.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self.events_scheduled
        self.events_scheduled = seq + 1
        heap = self._heap
        _heappush(heap, (self._now + delay, seq, callback, args, daemon))
        if daemon:
            self.daemon_scheduled += 1
        else:
            self._real += 1
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def schedule_now(self, callback: Callable[..., None],
                     args: tuple = _NO_ARGS) -> None:
        """Run ``callback`` at the current instant, after pending same-time work.

        Inlines :meth:`schedule` with ``delay=0``: event triggering and
        process resumption funnel through here, so the extra frame is
        measurable.
        """
        seq = self.events_scheduled
        self.events_scheduled = seq + 1
        heap = self._heap
        _heappush(heap, (self._now, seq, callback, args, False))
        self._real += 1
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def run_due_next(self, callback: Callable[..., None],
                     args: tuple = _NO_ARGS,
                     queued: Callable[..., None] | None = None) -> None:
        """A wake-up as the running entry's last act: run ``callback`` here
        when its entry would be the next to pop, else queue it.

        This is the one place the due-next rule lives.  When no other
        entry is due at this instant (the queue is empty, or its front
        entry is later than ``now``), the entry :meth:`schedule_now` would
        queue is the next to pop, so ``callback(*args)`` runs in place,
        under the key that entry would have had: after every entry queued
        before it and before every one queued after (:attr:`running_key`,
        ``events_scheduled - 0.5``).  Otherwise ``queued`` (default:
        ``callback``) is queued with ``args``: the form a wake-up takes
        from the queue where that differs, as a hop of its own
        (:meth:`repro.sim.Process.wake_last`) or a check that its port
        survived (``Service.deliver``).
        """
        heap = self._heap
        if heap and heap[0][0] <= self._now:
            self.schedule_now(callback if queued is None else queued, args)
            return
        self._seq = self.events_scheduled - 0.5
        if args:
            callback(*args)
        else:
            callback()

    def _dispatch(self, deadline: float = _INF, count_daemons: bool = False,
                  event: Event | None = None, once: bool = False) -> None:
        """The one dispatch loop: pop entries in ``(time, seq)`` order and
        run them until the first of

        - quiescence: no real entry is queued (no entry at all when
          ``count_daemons``),
        - the front entry lies beyond ``deadline``,
        - ``event`` has been processed,
        - one entry has run (``once``).

        Every public entry point drives this loop, so the re-entrancy guard
        lives here: a callback that re-enters the engine would nest two
        loops over one clock.
        """
        if self._running:
            raise SimulationError(
                "engine is already running (re-entered from a callback)")
        self._running = True
        heap = self._heap
        try:
            # Re-checked every iteration: a callback chain may retire the
            # last real entry mid-run, leaving a daemon-only queue that
            # could otherwise spin the clock forever on probe ticks.
            while heap if count_daemons else self._real:
                if heap[0][0] > deadline or (event is not None
                                             and event.processed):
                    break
                time, seq, callback, args, daemon = _heappop(heap)
                self._seq = seq
                if daemon:
                    self.daemon_executed += 1
                else:
                    self._real -= 1
                self._now = time
                self.events_executed += 1
                # The profiler only *measures* the callback (wall clock never
                # feeds back into simulated state), so both branches are
                # equivalent to the simulation.
                if self.profiler is None:
                    if args:
                        callback(*args)
                    else:
                        callback()
                else:
                    self.profiler.run_step(callback, daemon, time, args)
                if once:
                    break
        finally:
            self._running = False
            if self.profiler is not None:
                self.profiler.idle()

    def step(self) -> bool:
        """Execute the next scheduled callback, and with it the callbacks
        of a wake-up it causes that is due next.  Returns False when
        idle."""
        executed = self.events_executed
        self._dispatch(count_daemons=True, once=True)
        return self.events_executed != executed

    def run(self, until: float | None = None) -> None:
        """Run until the event queue quiesces or the clock passes ``until``.

        With ``until`` set, the clock is advanced exactly to ``until`` when
        the queue quiesces early or the next event lies beyond it.  Without
        ``until``, pending daemon entries do not count as work -- the loop
        stops once only housekeeping remains.
        """
        if until is None:
            self._dispatch()
            return
        if until < self._now:
            raise SimulationError(f"until={until} is before now={self._now}")
        self._dispatch(until, count_daemons=True)
        self._now = until
        self._seq = _INF

    def drain(self, max_ms: float) -> bool:
        """Run until the queue quiesces, giving up ``max_ms`` from now.

        The bounded form of :meth:`run` for driving a simulation to
        quiescence when some process may never stop (a retry loop waiting
        on a node that never recovers, say): returns True when the queue
        went quiet -- the clock then rests at the last event, not at the
        deadline -- and False when work remained at the deadline, with
        the clock at the last entry due by then (counting the entries
        :attr:`skipped` accounts for).  Daemon entries alone do not count
        as remaining work.
        """
        if max_ms < 0:
            raise SimulationError(f"cannot drain for negative time ({max_ms})")
        deadline = self._now + max_ms
        self._dispatch(deadline)
        if not self._real:
            return True
        for latest in self.skipped:
            self._now = max(self._now, latest(deadline))
        self._seq = _INF  # every entry due by the deadline has run
        return False

    def run_until(self, event: object) -> object:
        """Run until ``event`` has been processed; return its value.

        Raises the event's exception if it failed, and ``SimulationError`` if
        the queue quiesces (only daemon entries left) while the event is
        still pending (deadlock).
        """
        # Local import to avoid a cycle at module-import time.
        from repro.sim.events import Event

        if not isinstance(event, Event):
            raise SimulationError(f"run_until() needs an Event, got {event!r}")
        self._dispatch(event=event)
        if not event.processed:
            daemons = len(self._heap)
            detail = (
                f"only {daemons} daemon entr"
                f"{'y' if daemons == 1 else 'ies'} left"
                if daemons else "event queue drained")
            raise SimulationError(
                f"{detail} while {event!r} was still pending "
                "(simulated deadlock)"
            )
        return event.result()

    def pending_count(self) -> int:
        """Number of non-daemon callbacks still queued (diagnostic)."""
        return self._real
