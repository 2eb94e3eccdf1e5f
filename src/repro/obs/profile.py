"""Wall-clock self-profiling for the simulator -- where *real* time goes.

Everything else in ``repro.obs`` answers questions in *simulated*
milliseconds.  This module answers the ROADMAP item 3 question instead:
how fast does the simulator itself run, and which handler categories and
lock keys burn the wall-clock budget?  QUANTAS-style, simulated-events
per wall second is a first-class output of the simulator.

The zero-feedback invariant is the contract that makes this safe to ship
always-available: the profiler *reads* the wall clock but never lets a
reading feed back into simulated state.  It charges no primitives,
schedules no events, draws no randomness, and touches no metric the
golden digests hash -- so a profiled run replays the unprofiled event
sequence byte for byte (the determinism suite asserts it).

Four layers:

- **Event-loop accounting** -- :meth:`SimProfiler.run_step` wraps every
  callback the :class:`~repro.sim.engine.Engine` pops, attributing wall
  time and counts to a *handler category* derived from the callback's
  owner (``Process:client``, ``Port:rpc-reply:set_cell``) or its closure's
  qualname (``Network._arrival``).  Label normalisation strips instance
  digits so two same-shape runs produce the same category set.
- **Span-booked wall** -- :meth:`SimProfiler.resume` reads the clock
  around each entry into a causal context -- a process resumption
  (``Process._advance``) or a handler that never waits
  (``Service._handle``) -- and books it to the Figure 3-1 component of
  the innermost span on the context's ``trace_stack`` as the entry
  starts -- a process's own innermost open span, else the span the
  message that started it carried -- in the tracer's vocabulary
  (``WAL``, ``RM``, ``TM``, ``DS``, ``LOCK``, ``RPC``, ...;
  :data:`NO_SPAN` when there is none, as in an untraced run).  An entry
  nested in another (a wake-up run in the waker's entry) is booked to
  its own span, not its waker's.  Everything else inside the dispatch
  loop -- popping entries, a datagram's arrival, a port's delivery up
  to the entry it causes, the profiler's own bookkeeping -- is booked
  to :data:`SIM`, measured between the readings, not inferred.  The
  components of a window therefore sum to the wall its ``run`` calls
  took, less only the loop's entry and exit around the first and last
  reading (``tests/obs/test_profile.py`` bounds it).
- **Contention telemetry** -- :meth:`SimProfiler.record_lock_wait` feeds
  a per-``(node, key)`` heatmap of cumulative *simulated* lock wait (the
  hottest keys are what a lock-splitting optimisation must attack
  first), and :meth:`SimProfiler.wait_for_graph` snapshots
  who-waits-behind-whom across every lock manager in the cluster.
- **The meter** -- events per wall second and wall seconds per simulated
  second, the two numbers the ``bench_sim_speed`` meta-benchmark gates.

Exports (collapsed-stack flamegraph text, pstats dump) live in
:mod:`repro.obs.export`; the ``profile`` CLI subcommand renders the
``--top N`` hot-handler table and the span-booked component table
through ``write_report``.
"""

from __future__ import annotations

import time as _time
from functools import lru_cache
from typing import Callable

#: markers stripped from closure qualnames so lambdas fold into the
#: function that created them (``Process.__init__.<locals>.<lambda>``
#: profiles as ``Process.__init__``)
_LOCALS_MARKER = ".<locals>."
#: the component booked the dispatch loop's own wall
SIM = "sim"
#: the component booked a resumption whose process has no open span
NO_SPAN = "(no span)"


@lru_cache(maxsize=4096)
def _normalize_label(name: str) -> str:
    """Collapse an instance label into a category label.

    ``client7`` and ``client12`` are the same *kind* of handler; so are
    ``timeout(5.0)`` and ``timeout(80.0)``, and ``n1:driver`` and
    ``n2:driver``.  Strips a parenthesised suffix, then digits, then
    dangling separators -- purely lexical, so the mapping is
    deterministic and total.  Memoised: it runs once per profiled entry,
    after the entry's wall reading, so its cost lands in the share of the
    wall no handler is booked for.
    """
    label = name.split("(", 1)[0]
    label = "".join(ch for ch in label if not ch.isdigit())
    return label.strip(":_ ")


def handler_category(callback: Callable[[], None]) -> str:
    """The profiling category of one scheduled callback.

    Bound methods are attributed to their owner -- for simulation events
    that is the event type plus its normalised name label
    (``Process:client``, ``Port:rpc-reply:set_cell``, ``Event:abort``).  Plain
    functions and lambdas are attributed to the enclosing function of
    their qualname (``Network._arrival``, ``Timeout.__init__``).
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        base = type(owner).__name__
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name:
            label = _normalize_label(name)
            if label:
                return f"{base}:{label}"
        return base
    qualname = getattr(callback, "__qualname__", "")
    if not qualname:
        return type(callback).__name__
    return qualname.split(_LOCALS_MARKER, 1)[0]


class SimProfiler:
    """Wall-clock accounting for one cluster's event loop.

    Strictly passive: every record is a dict/float update on profiler-own
    state.  ``clock`` is injectable (tests pass a fake) and defaults to
    ``time.perf_counter``.
    """

    def __init__(self, ctx, clock: Callable[[], float] = _time.perf_counter
                 ) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self._clock = clock
        #: handler category -> [executed count, cumulative wall seconds]
        self.handlers: dict[str, list] = {}
        #: (node, lock key repr) -> [wait count, cumulative simulated ms]
        self.lock_waits: dict[tuple[str, str], list] = {}
        #: span component (or :data:`SIM`) -> cumulative wall seconds
        self.components: dict[str, float] = {}
        #: the causal context whose entry is being timed, or None
        self.running = None
        #: the component the wall since ``_mark`` is booked to
        self._bucket = SIM
        #: the last clock reading inside the running dispatch, or None
        #: between dispatches
        self._mark: float | None = None
        self.steps = 0
        self.daemon_steps = 0
        self._wall_first: float | None = None
        self._wall_last: float | None = None
        self._sim_first: float | None = None
        self._sim_last: float | None = None
        #: the cluster network, for the message-churn snapshot section
        self.network = None

    # -- the engine hook ---------------------------------------------------------

    def run_step(self, callback: Callable[..., None], daemon: bool,
                 now: float, args: tuple = ()) -> None:
        """Execute ``callback(*args)`` under the wall clock (called by
        the engine's dispatch loop; exceptions propagate unchanged)."""
        start = self._clock()
        if self._wall_first is None:
            self._wall_first = start
            self._sim_first = now
        if self._mark is not None:
            self._book(SIM, start - self._mark)
        self._mark = start
        try:
            callback(*args)
        finally:
            end = self._clock()
            self._book(SIM, end - self._mark)
            self._mark = end
            self._wall_last = end
            self._sim_last = now
            self.steps += 1
            if daemon:
                self.daemon_steps += 1
            category = handler_category(callback)
            stat = self.handlers.get(category)
            if stat is None:
                stat = self.handlers[category] = [0, 0.0]
            stat[0] += 1
            stat[1] += end - start

    # -- span-booked wall ---------------------------------------------------------

    def _book(self, component: str, seconds: float) -> None:
        components = self.components
        components[component] = components.get(component, 0.0) + seconds

    def _component(self, context) -> str:
        stack = None if context is None else context.trace_stack
        tracer = self.ctx.tracer
        if stack and stack[-1] and tracer is not None:
            return tracer.component_of(stack[-1])
        return NO_SPAN

    def resume(self, context, run: Callable[..., None], args: tuple) -> None:
        """Run ``run(*args)``, code entering the causal context
        ``context`` -- a process's resumption (``Process._advance``), a
        handler that never waits (``Service._handle``; None in an
        untraced run) -- under the clock, and book its wall to the
        component of the span it runs in (exceptions propagate
        unchanged)."""
        start = self._clock()
        mark, outer, bucket = self._mark, self.running, self._bucket
        if mark is not None:
            self._book(bucket, start - mark)
        self._mark = start
        self.running = context
        self._bucket = self._component(context)
        try:
            run(*args)
        finally:
            end = self._clock()
            self._book(self._bucket, end - self._mark)
            # outside a dispatch (a test resuming by hand) nothing else
            # is booked until the next entry
            self._mark = end if mark is not None else None
            self.running = outer
            self._bucket = bucket

    def idle(self) -> None:
        """The dispatch loop returned (called by the engine): book its
        tail since the last entry, and nothing until the next one."""
        if self._mark is not None:
            self._book(SIM, self._clock() - self._mark)
            self._mark = None

    def component_wall(self) -> list[dict]:
        """Span components (and :data:`SIM`) by cumulative wall time."""
        total = sum(self.components.values())
        return [{"component": component, "wall_s": wall_s,
                 "share": wall_s / total if total > 0 else 0.0}
                for component, wall_s in sorted(
                    self.components.items(),
                    key=lambda item: (-item[1], item[0]))]

    # -- contention telemetry ----------------------------------------------------

    def record_lock_wait(self, node: str, key, wait_ms: float) -> None:
        """One finished lock wait (simulated ms; called by LockManager)."""
        heat_key = (node, str(key))
        stat = self.lock_waits.get(heat_key)
        if stat is None:
            stat = self.lock_waits[heat_key] = [0, 0.0]
        stat[0] += 1
        stat[1] += wait_ms

    def hottest_lock_keys(self, top: int = 10) -> list[dict]:
        """The contention heatmap: top-N lock keys by cumulative wait."""
        ranked = sorted(self.lock_waits.items(),
                        key=lambda item: (-item[1][1], item[0]))
        return [{"node": node, "key": key, "waits": count,
                 "wait_ms": wait_ms}
                for (node, key), (count, wait_ms) in ranked[:top]]

    def wait_for_graph(self) -> list[dict]:
        """A live who-waits-for-whom snapshot across every lock manager.

        One edge per queued waiter: ``waiter`` (tid) is queued for
        ``key`` on ``node`` behind ``holders``.  Registration happens in
        ``LockManager.__init__`` via ``ctx.lock_managers``, so managers
        of crashed-and-rebuilt nodes are covered too (their cleared
        tables simply contribute no edges).
        """
        return [{"node": manager.node_name,
                 "key": str(key),
                 "waiter": str(waiter.tid),
                 "mode": waiter.mode.name,
                 "holders": sorted(str(holder) for holder in holders)}
                for manager in self.ctx.lock_managers
                for key, waiter, holders in manager.wait_graph()]

    # -- the meter ---------------------------------------------------------------

    def wall_seconds(self) -> float:
        if self._wall_first is None or self._wall_last is None:
            return 0.0
        return self._wall_last - self._wall_first

    def sim_seconds(self) -> float:
        if self._sim_first is None or self._sim_last is None:
            return 0.0
        return (self._sim_last - self._sim_first) / 1000.0

    def events_per_wall_second(self) -> float:
        wall = self.wall_seconds()
        return self.steps / wall if wall > 0 else 0.0

    def wall_sec_per_sim_sec(self) -> float:
        sim = self.sim_seconds()
        return self.wall_seconds() / sim if sim > 0 else 0.0

    def meter(self) -> dict:
        """The live speed meter -- readable mid-run or after."""
        return {
            "events_executed": self.steps,
            "daemon_executed": self.daemon_steps,
            "wall_s": self.wall_seconds(),
            "sim_ms": (self._sim_last - self._sim_first)
            if self._sim_last is not None and self._sim_first is not None
            else 0.0,
            "events_per_wall_sec": self.events_per_wall_second(),
            "wall_sec_per_sim_sec": self.wall_sec_per_sim_sec(),
        }

    # -- snapshots ---------------------------------------------------------------

    def hot_handlers(self, top: int = 10) -> list[dict]:
        """Top-N handler categories by cumulative wall time."""
        ranked = sorted(self.handlers.items(),
                        key=lambda item: (-item[1][1], item[0]))
        total_wall = sum(stat[1] for stat in self.handlers.values())
        out = []
        for category, (count, wall_s) in ranked[:top]:
            out.append({
                "category": category,
                "count": count,
                "wall_s": wall_s,
                "share": wall_s / total_wall if total_wall > 0 else 0.0,
            })
        return out

    def engine_counters(self) -> dict:
        """The fabric churn section (always-on Engine counters)."""
        engine = self.engine
        return {
            "events_scheduled": engine.events_scheduled,
            "daemon_scheduled": engine.daemon_scheduled,
            "events_executed": engine.events_executed,
            "daemon_executed": engine.daemon_executed,
            "heap_high_water": engine.heap_high_water,
            "pending_now": engine.pending_count(),
        }

    def network_counters(self) -> dict:
        """Message churn: delivered vs dropped datagrams."""
        network = self.network
        if network is None:
            return {}
        return {
            "datagrams_sent": network.datagrams_sent,
            "datagrams_lost": network.datagrams_lost,
            "datagrams_blocked": network.datagrams_blocked,
            "datagrams_undeliverable": network.datagrams_undeliverable,
            "datagrams_duplicated": network.datagrams_duplicated,
            "datagrams_reordered": network.datagrams_reordered,
        }

    def snapshot(self) -> dict:
        """Everything, JSON-ready (wall fields are nondeterministic)."""
        return {
            "handlers": {category: {"count": count, "wall_s": wall_s}
                         for category, (count, wall_s)
                         in sorted(self.handlers.items())},
            "engine": self.engine_counters(),
            "network": self.network_counters(),
            "meter": self.meter(),
            "components": dict(sorted(self.components.items())),
            "lock_contention": self.hottest_lock_keys(),
            "wait_for": self.wait_for_graph(),
        }


def render_profile(profiler: SimProfiler, top: int = 10) -> str:
    """The ``profile`` CLI report: meter, churn, span components, hot
    handlers, heatmap."""
    from repro.perf.report import render_table

    meter = profiler.meter()
    sections = [
        "Simulator speed meter\n=====================\n"
        f"  events executed        {meter['events_executed']}\n"
        f"  wall seconds           {meter['wall_s']:.3f}\n"
        f"  simulated ms           {meter['sim_ms']:.1f}\n"
        f"  events / wall sec      {meter['events_per_wall_sec']:.0f}\n"
        f"  wall sec / sim sec     {meter['wall_sec_per_sim_sec']:.4f}",
    ]
    engine = profiler.engine_counters()
    churn_rows = [[name, str(value)] for name, value in engine.items()]
    network = profiler.network_counters()
    churn_rows.extend([name, str(value)] for name, value in network.items())
    sections.append(render_table("Fabric churn", ["counter", "value"],
                                 churn_rows))
    components = profiler.component_wall()
    if components:
        rows = [[c["component"], f"{c['wall_s'] * 1000.0:.2f}",
                 f"{c['share']:.1%}"]
                for c in components]
        sections.append(render_table(
            "Wall by span component (process resumptions and handlers; "
            "sim: the dispatch loop between them)",
            ["component", "wall ms", "share"], rows))
    handlers = profiler.hot_handlers(top)
    if handlers:
        rows = [[h["category"], str(h["count"]),
                 f"{h['wall_s'] * 1000.0:.2f}", f"{h['share']:.1%}"]
                for h in handlers]
        sections.append(render_table(
            f"Hot handlers (top {top} by wall time)",
            ["category", "events", "wall ms", "share"], rows))
    heatmap = profiler.hottest_lock_keys(top)
    if heatmap:
        rows = [[h["node"], h["key"], str(h["waits"]),
                 f"{h['wait_ms']:.1f}"]
                for h in heatmap]
        sections.append(render_table(
            f"Lock contention heatmap (top {top} by cumulative wait)",
            ["node", "key", "waits", "wait ms (sim)"], rows))
    edges = profiler.wait_for_graph()
    if edges:
        rows = [[e["node"], e["key"], str(e["waiter"]), e["mode"],
                 ", ".join(e["holders"])]
                for e in edges]
        sections.append(render_table(
            "Wait-for graph (queued lock requests at snapshot time)",
            ["node", "key", "waiter", "mode", "behind holders"], rows))
    return "\n\n".join(sections)
