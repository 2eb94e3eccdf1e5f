"""Shared simulation context.

A :class:`SimContext` bundles what every simulated component needs: the
event engine, the primitive cost profile in force, the per-component CPU
cost table, the :class:`~repro.kernel.costs.CostMeter` instrumentation, and
a seeded random generator.  One context instruments one simulated cluster.
"""

from __future__ import annotations

import random

from repro.kernel.costs import (
    MEASURED_1985,
    CostMeter,
    CostProfile,
    CpuCosts,
    Primitive,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NO_SPAN, SpanScope, Tracer
from repro.sim import Engine


class SimContext:
    """Engine + cost model + instrumentation for one simulated cluster."""

    def __init__(self, engine: Engine | None = None,
                 profile: CostProfile = MEASURED_1985,
                 cpu_costs: CpuCosts | None = None,
                 seed: int = 1985) -> None:
        self.engine = engine or Engine()
        self.profile = profile
        self.cpu_costs = cpu_costs or CpuCosts()
        self.meter = CostMeter()
        self.random = random.Random(seed)
        #: operational metrics (lock waits, log-force latency, commit paths);
        #: always on -- recording is passive and cannot perturb the run
        self.metrics = MetricsRegistry()
        #: causal span tracer (:class:`repro.obs.Tracer`), or None.
        #: Instrumentation sites open spans through :meth:`span`, which
        #: hands back one shared no-op scope while this is None.
        self.tracer: Tracer | None = None
        #: wall-clock self-profiler (:class:`repro.obs.profile.SimProfiler`),
        #: or None; same one-attribute-check pattern as ``tracer``.  The
        #: profiler only ever reads the wall clock -- it never feeds a
        #: reading back into simulated state, so profiled runs replay the
        #: unprofiled event sequence byte for byte.
        self.profiler = None
        #: every LockManager built against this context registers here so
        #: the profiler can snapshot cluster-wide wait-for graphs
        self.lock_managers: list = []
        #: Section 5.3's "Improved TABS Architecture": the Recovery Manager
        #: and Transaction Manager are merged with the Accent kernel, which
        #: eliminates message passing among those three components and lets
        #: distributed-commit bookkeeping overlap succeeding transactions.
        self.merged_architecture = False

    @property
    def now(self) -> float:
        return self.engine.now

    def span(self, name: str, node: str, component: str,
             **where) -> SpanScope:
        """A ``with`` scope around one trace span (``as span`` to
        ``span.set(...)`` its end attributes).

        ``where`` is :meth:`Tracer.span`'s ``tid`` and attributes; the
        parent is the running process's (:mod:`repro.obs.tracer`).  Pass
        an attribute that costs something to build
        (``",".join(children)``, ``str(key)``) as a zero-argument
        callable, which is only called when a tracer is attached.
        """
        tracer = self.tracer
        if tracer is None:
            return NO_SPAN
        return tracer.span(name, node, component, **where)

    def charge(self, primitive: Primitive) -> float:
        """Record a primitive execution and return its latency, for the
        running process to sleep (``yield ctx.charge(...)``)."""
        time_ms = self.profile.time_of(primitive)
        self.meter.record(primitive, time_ms)
        return time_ms

    def cpu(self, component: str, time_ms: float) -> float:
        """CPU work by a named component: records and returns its latency,
        for the running process to sleep (``yield ctx.cpu(...)``)."""
        self.meter.record_cpu(component, time_ms)
        return time_ms
