"""The wall-clock self-profiler: accounting, contention, zero feedback.

The contracts, in the order the zero-feedback invariant demands them:

1. **Non-perturbation** -- enabling the profiler must not change one
   byte of simulated state: Table 5-2/5-3 results, metrics snapshots,
   and engine counters of profiled and unprofiled runs are equal.
2. **Accounting** -- every executed event lands in exactly one handler
   category; wall time is attributed with an injectable clock so the
   arithmetic is testable deterministically.
3. **Contention telemetry** -- the heatmap ranks lock keys by
   cumulative simulated wait, and the wait-for graph snapshots queued
   requests across lock managers.
4. **Exporters** -- collapsed-stack text is flamegraph-shaped, and the
   pstats dump loads into the stdlib ``pstats.Stats``.
"""

import io
import marshal
import pstats
import time

import pytest

from repro.core.config import TabsConfig
from repro.kernel.context import SimContext
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.service import Service, handlers_of
from repro.locking.manager import LockManager
from repro.locking.modes import WRITE
from repro.obs import (
    SimProfiler,
    Tracer,
    collapsed_stacks,
    handler_category,
    metrics_json,
    pstats_table,
    render_profile,
    write_pstats,
)
from repro.perf.benchmarks import BENCHMARKS_BY_KEY, run_benchmark
from repro.perf.throughput import run_throughput
from repro.obs.profile import NO_SPAN, SIM
from repro.sim import PARKED, Process, Timeout


def _plain_handler():
    pass


class FakeClock:
    """A deterministic perf_counter: each read advances 1 ms."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.reads * 0.001


class TestHandlerCategory:
    def test_bound_method_uses_owner_type_and_label(self):
        ctx = SimContext()
        timeout = Timeout(ctx.engine, 5.0, name="datagram")
        assert handler_category(timeout._run_callbacks) == \
            "Timeout:datagram"

    def test_instance_digits_are_normalized_away(self):
        ctx = SimContext()

        def body():
            yield Timeout(ctx.engine, 1.0)

        process = Process(ctx.engine, body(), name="client7")
        assert handler_category(process._run_callbacks) == \
            "Process:client"

    def test_parenthesised_suffix_is_stripped(self):
        ctx = SimContext()
        timeout = Timeout(ctx.engine, 5.0)  # name "timeout(5.0)"
        assert handler_category(timeout._run_callbacks) == \
            "Timeout:timeout"

    def test_lambda_folds_into_enclosing_function(self):
        def outer():
            return lambda: None

        assert handler_category(outer()) == \
            "TestHandlerCategory.test_lambda_folds_into_enclosing_function"

    def test_plain_function_uses_qualname(self):
        assert handler_category(_plain_handler) == "_plain_handler"


class TestAccounting:
    def run_profiled(self):
        ctx = SimContext()
        clock = FakeClock()
        profiler = SimProfiler(ctx, clock=clock)
        ctx.profiler = profiler
        ctx.engine.profiler = profiler

        def body():
            yield Timeout(ctx.engine, 10.0, name="datagram")
            yield Timeout(ctx.engine, 10.0, name="datagram")

        ctx.engine.run_until(Process(ctx.engine, body(), name="driver"))
        return ctx, profiler

    def test_every_step_is_attributed(self):
        ctx, profiler = self.run_profiled()
        assert profiler.steps == ctx.engine.events_executed
        assert sum(stat[0] for stat in profiler.handlers.values()) == \
            profiler.steps
        assert any(category.startswith("Timeout:")
                   for category in profiler.handlers)

    def test_wall_time_accumulates_under_fake_clock(self):
        _, profiler = self.run_profiled()
        # Each step reads the clock twice, and twice more for each process
        # resumption it runs: the driver's start and its two wake-ups
        # each cost 2 ms more than a plain entry's 1 ms.
        resumed = {"Process:driver": 1, "Timeout:datagram": 2}
        for category, (count, wall_s) in profiler.handlers.items():
            expected = count * 0.001 + resumed.get(category, 0) * 0.002
            assert abs(wall_s - expected) < 1e-9, category
        assert profiler.wall_seconds() > 0
        assert profiler.events_per_wall_second() > 0

    def test_meter_relates_wall_to_sim_time(self):
        ctx, profiler = self.run_profiled()
        meter = profiler.meter()
        assert meter["events_executed"] == profiler.steps
        assert meter["sim_ms"] == 20.0
        assert meter["wall_sec_per_sim_sec"] == \
            profiler.wall_seconds() / 0.020

    def test_engine_churn_counters(self):
        ctx, _ = self.run_profiled()
        engine = ctx.engine
        assert engine.events_executed == engine.events_scheduled
        assert engine.heap_high_water >= 1
        assert engine.daemon_executed == 0
        assert engine.pending_count() == 0

    def test_callback_exceptions_propagate(self):
        ctx = SimContext()
        profiler = SimProfiler(ctx, clock=FakeClock())
        ctx.engine.profiler = profiler

        def boom():
            raise RuntimeError("handler failed")

        ctx.engine.schedule(1.0, boom)
        try:
            ctx.engine.step()
        except RuntimeError:
            pass
        else:
            raise AssertionError("exception was swallowed")
        # The failing step was still accounted.
        assert profiler.steps == 1


class TestSpanBookedWall:
    """Wall booked per process resumption to its innermost open span's
    component, and the dispatch loop's own wall to ``sim``."""

    def test_no_reading_is_left_out_under_fake_clock(self):
        """Between the first reading of the run and the last, every
        millisecond of the fake clock is booked to exactly one
        component: the readings tile the dispatch."""
        ctx = SimContext()
        clock = FakeClock()
        profiler = SimProfiler(ctx, clock=clock)
        ctx.engine.profiler = profiler

        def body():
            yield 10.0
            yield Timeout(ctx.engine, 10.0)

        ctx.engine.run_until(Process(ctx.engine, body(), name="driver"))
        assert set(profiler.components) == {SIM, NO_SPAN}
        assert profiler.components[NO_SPAN] == pytest.approx(0.003)
        assert sum(profiler.components.values()) == \
            pytest.approx((clock.reads - 1) * 0.001)

    def test_a_resumption_is_booked_to_its_innermost_span(self):
        ctx = SimContext()
        ctx.tracer = Tracer(ctx.engine)
        profiler = SimProfiler(ctx, clock=FakeClock())
        ctx.engine.profiler = profiler

        def forcer():
            with ctx.span("wal.force", "n0", "WAL"):
                yield 5.0  # resumed inside the span: WAL
            with ctx.span("lock.wait", "n0", "LOCK"):
                yield 5.0  # resumed inside the span: LOCK

        ctx.engine.run_until(Process(ctx.engine, forcer(), name="force"))
        # the first resumption ran before any span was open
        assert profiler.components[NO_SPAN] == pytest.approx(0.001)
        assert profiler.components["WAL"] == pytest.approx(0.001)
        assert profiler.components["LOCK"] == pytest.approx(0.001)

    def test_a_nested_resumption_is_booked_to_its_own_span(self):
        """A wake-up run inline in the waker's resumption
        (``Process.wake_last``) is its own span's, not the waker's."""
        ctx = SimContext()
        ctx.tracer = Tracer(ctx.engine)
        profiler = SimProfiler(ctx, clock=FakeClock())
        ctx.engine.profiler = profiler
        tokens = []

        def sleeper():
            with ctx.span("lock.wait", "n0", "LOCK"):
                tokens.append(ctx.engine.active_process.park())
                yield PARKED

        def waker(other):
            with ctx.span("wal.force", "n0", "WAL"):
                yield 5.0
                other.wake_last(tokens[0], None)

        other = Process(ctx.engine, sleeper(), name="sleeper")
        ctx.engine.run_until(Process(ctx.engine, waker(other),
                                     name="waker"))
        assert other.processed
        # Both starts ran before any span was open: 1 ms each.  At t=5
        # the waker's resumption reads the clock at its start, at the
        # nested one's start and end, and at its own end: 1 ms before
        # and 1 ms after the nested one are WAL's, the 1 ms between is
        # LOCK's.
        assert profiler.components["LOCK"] == pytest.approx(0.001)
        assert profiler.components["WAL"] == pytest.approx(0.002)
        assert profiler.components[NO_SPAN] == pytest.approx(0.002)

    @pytest.mark.parametrize("traced", [True, False])
    def test_a_handler_that_never_waits_is_booked_to_its_message(
            self, traced):
        """A never-waiting handler runs in no process, in the context its
        message carried; its wall goes to that span's component (to
        ``(no span)`` untraced), not to ``sim``, and the readings still
        tile the dispatch."""
        ctx = SimContext()
        if traced:
            ctx.tracer = Tracer(ctx.engine)
        clock = FakeClock()
        profiler = SimProfiler(ctx, clock=clock)
        ctx.engine.profiler = profiler
        node = Node(ctx, "n0")
        port = node.create_port("svc")
        handled = []

        class Owner:
            def _handle_note(self, message):
                handled.append(message.trace_parent)

        Service(node, port, "svc", handlers_of(Owner()), "svc")

        def sender():
            with ctx.span("wal.force", "n0", "WAL"):
                port.send(Message(op="svc.note"))
            yield 1.0

        Process(ctx.engine, sender(), name="sender")
        ctx.engine.run()
        assert len(handled) == 1
        # 1 ms each: the handler, and the sender's two resumptions, which
        # both ran outside its span
        if traced:
            assert handled[0] and profiler.components["WAL"] == \
                pytest.approx(0.001)
            assert profiler.components[NO_SPAN] == pytest.approx(0.002)
        else:
            assert "WAL" not in profiler.components
            assert profiler.components[NO_SPAN] == pytest.approx(0.003)
        assert sum(profiler.components.values()) == \
            pytest.approx((clock.reads - 1) * 0.001)

    def test_components_sum_to_the_window_wall(self):
        """On a real run, the components booked over a window sum to the
        wall its ``run`` calls took, less at most the loop's entry and
        exit around the first and last reading of each call: a few
        microseconds, bounded here by 1 ms per call."""
        from repro.core.cluster import TabsCluster
        from repro.core.config import WorkloadConfig
        from repro.workloads import DebitCreditWorkload

        cluster = TabsCluster(TabsConfig(seed=7, workload=WorkloadConfig(
            branches=2, accounts_per_branch=300, tellers_per_branch=4,
            locality=0.7)))
        cluster.enable_tracing()
        profiler = cluster.enable_profiling()
        DebitCreditWorkload(cluster, cluster.build_workload(),
                            seed=7).schedule_traffic(txns=40, spacing_ms=40.0)
        engine = cluster.engine
        before = sum(profiler.components.values())
        window = 0.0
        calls = 20
        for _ in range(calls):
            started = time.perf_counter()
            engine.run(until=engine.now + 100.0)
            window += time.perf_counter() - started
        booked = sum(profiler.components.values()) - before
        assert booked <= window
        assert window - booked <= calls * 0.001
        assert profiler.components["WAL"] > 0

    def test_an_unprofiled_resumption_reads_no_clock(self):
        """Without a profiler, ``Process._advance`` costs one attribute
        check more: nothing is booked anywhere."""
        ctx = SimContext()

        def body():
            yield 1.0

        process = Process(ctx.engine, body())
        ctx.engine.run_until(process)
        assert ctx.engine.profiler is None and process.processed


class TestContentionTelemetry:
    def test_heatmap_ranks_by_cumulative_wait(self):
        ctx = SimContext()
        profiler = SimProfiler(ctx, clock=FakeClock())
        profiler.record_lock_wait("n1", "cold", 5.0)
        profiler.record_lock_wait("n1", "hot", 80.0)
        profiler.record_lock_wait("n1", "hot", 40.0)
        top = profiler.hottest_lock_keys(top=1)
        assert top == [{"node": "n1", "key": "hot", "waits": 2,
                        "wait_ms": 120.0}]

    def test_shared_cell_workload_heats_exactly_one_key(self):
        captured = []

        def instrument(cluster):
            captured.append(cluster)
            cluster.enable_profiling()

        run_throughput(4, "shared", duration_ms=3_000.0,
                       instrument=instrument)
        profiler = captured[0].ctx.profiler
        assert len(profiler.lock_waits) == 1
        ((node, key), (waits, wait_ms)), = profiler.lock_waits.items()
        assert node == "n1"
        assert "offset=0" in key
        assert waits > 0 and wait_ms > 0

    def test_wait_for_graph_snapshots_queued_requests(self):
        ctx = SimContext()
        profiler = SimProfiler(ctx, clock=FakeClock())
        ctx.profiler = profiler
        manager = LockManager(ctx, node_name="n1")
        assert manager in ctx.lock_managers
        assert manager.try_lock("t1", "cell", WRITE)
        snapshots = []

        def contender():
            locker = manager.lock("t2", "cell", WRITE,
                                  timeout_ms=50.0)
            try:
                yield from locker
            except Exception:
                pass

        def observer():
            yield Timeout(ctx.engine, 10.0)
            snapshots.append(profiler.wait_for_graph())

        process = Process(ctx.engine, contender(), name="contender")
        Process(ctx.engine, observer(), name="observer")
        ctx.engine.run_until(process)
        assert snapshots == [[{
            "node": "n1", "key": "cell", "waiter": "t2",
            "mode": "WRITE", "holders": ["t1"],
        }]]
        # The timed-out wait also fed the heatmap (simulated ms).
        assert profiler.lock_waits[("n1", "cell")][0] == 1


class TestNonPerturbation:
    def run_w1w1(self, profiled: bool):
        captured = []

        def instrument(cluster):
            captured.append(cluster)
            if profiled:
                cluster.enable_profiling()

        result = run_benchmark(BENCHMARKS_BY_KEY["w1w1"],
                               TabsConfig(seed=1985), iterations=3,
                               instrument=instrument)
        return result, captured[0]

    def test_profiled_tables_equal_unprofiled(self):
        plain, plain_cluster = self.run_w1w1(profiled=False)
        profiled, profiled_cluster = self.run_w1w1(profiled=True)
        assert profiled.precommit_counts == plain.precommit_counts
        assert profiled.commit_counts == plain.commit_counts
        assert profiled.elapsed_ms == plain.elapsed_ms
        assert metrics_json(profiled_cluster.metrics) == \
            metrics_json(plain_cluster.metrics)
        assert profiled_cluster.engine.now == plain_cluster.engine.now

    def test_engine_counters_identical_either_way(self):
        _, plain_cluster = self.run_w1w1(profiled=False)
        _, profiled_cluster = self.run_w1w1(profiled=True)
        for name in ("events_scheduled", "daemon_scheduled",
                     "events_executed", "daemon_executed",
                     "heap_high_water"):
            assert getattr(profiled_cluster.engine, name) == \
                getattr(plain_cluster.engine, name), name

    def test_enable_profiling_is_idempotent(self):
        _, cluster = self.run_w1w1(profiled=True)
        profiler = cluster.ctx.profiler
        assert cluster.enable_profiling() is profiler
        assert cluster.engine.profiler is profiler


class TestExporters:
    def profiled_run(self):
        captured = []

        def instrument(cluster):
            captured.append(cluster)
            cluster.enable_profiling()

        run_throughput(2, "disjoint", duration_ms=1_000.0,
                       instrument=instrument)
        return captured[0].ctx.profiler

    def test_collapsed_stacks_shape(self):
        profiler = self.profiled_run()
        lines = collapsed_stacks(profiler).splitlines()
        assert lines
        for line in lines:
            frames, value = line.rsplit(" ", 1)
            assert frames.startswith("sim;")
            assert int(value) >= 1
        # One line per handler category, sorted.
        assert len(lines) == len(profiler.handlers)
        assert lines == sorted(lines)

    def test_pstats_dump_loads_into_stdlib(self, tmp_path):
        profiler = self.profiled_run()
        path = tmp_path / "profile.pstats"
        write_pstats(profiler, path)
        stats = pstats.Stats(str(path), stream=io.StringIO())
        assert len(stats.stats) == len(profiler.handlers)
        assert stats.total_calls == profiler.steps
        stats.sort_stats("cumulative").print_stats(5)  # must not raise

    def test_pstats_table_matches_marshal_roundtrip(self, tmp_path):
        profiler = self.profiled_run()
        path = tmp_path / "profile.pstats"
        write_pstats(profiler, path)
        assert marshal.loads(path.read_bytes()) == pstats_table(profiler)

    def test_render_profile_sections(self):
        profiler = self.profiled_run()
        report = render_profile(profiler, top=5)
        assert "Simulator speed meter" in report
        assert "Fabric churn" in report
        assert "Hot handlers" in report
        assert "Wall by span component" in report
        assert "events_scheduled" in report
        assert "datagrams_sent" in report

    def test_snapshot_is_json_ready(self):
        import json

        profiler = self.profiled_run()
        snapshot = profiler.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["engine"]["events_executed"] > 0
        assert snapshot["meter"]["events_per_wall_sec"] > 0
        assert set(snapshot["handlers"]) == set(profiler.handlers)
