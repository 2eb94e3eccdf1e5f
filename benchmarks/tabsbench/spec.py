"""The benchmark's vocabulary: metric names, workload names, bounds.

One table per kind, read by everything else in the package -- the runner
prints by these names, ``compare`` judges by these bounds, the self-tests
check the caps, and the root ``BENCHMARK.json`` is :func:`manifest`
serialised (``python -m benchmarks.tabsbench manifest``; a self-test
fails if the committed file drifts from it).

Every number is on one of two clocks.  **sim**: what the modelled TABS
cluster would take -- a pure function of (code, workload, seed), repeats
exactly.  **wall** / **host**: what the simulator costs the person
running it -- noisy, so reported as a median.
"""

from __future__ import annotations

from dataclasses import dataclass

#: DebitCredit's response-time rule: 95 % under one second
DEBITCREDIT_LIMIT_SIM_MS = 1000.0
#: one replicated DebitCredit transaction takes 2373 sim-ms on an idle
#: rf=2 cluster at the paper's 1985 primitive times (14 name lookups, 14
#: data-server calls of which 6 cross nodes, a 2-node commit), so the
#: one-second rule can never be met there; the limit is about twice the
#: unloaded time instead
RF2_LIMIT_SIM_MS = 5000.0
#: a tail percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND_TAIL = 10
#: every window must commit at least this many transactions (p95 with
#: ten samples beyond it needs 200)
MIN_COMMITTED = 200
#: what the driver passes as ``--seconds``; each workload's simulated
#: window is sized so that it takes about this long on the 2-core sandbox
RUN_SECONDS = 10
WARMUP_SIM_S = 10.0
#: open-loop runs drain at most this long after the window closes;
#: whatever is still unresolved then stays ``unknown``
DRAIN_CAP_SIM_S = 60.0
#: offered rate of the open-loop pair, transactions per simulated second.
#: Measured fault-free on this cluster (seed 1985, 200 sim-s): p50/p95 =
#: 2437/3638 sim-ms at 1.0, 2715/4694 at 1.5, 3655/7751 at 2.0 and
#: 5073/14148 with lock time-outs at 2.5 -- so 2.5 is past the knee (the
#: backlog grows with the window) and 1.5 is the highest of these rates
#: that meets the limit at p95.
OPEN_LOOP_RATE_PER_SIM_S = 1.5


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "sim" | "wall" | "host"
    clock: str
    #: "higher" | "lower"
    better: str
    #: share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only)
    bound: float | None = None
    doc: str = ""


# Bounds are relative (the contract's form).  The driver draws a fresh
# seed per run, so a simulated metric's bound has to clear its measured
# cross-seed spread threefold; between two runs of the *same* seed every
# simulated metric must be identical, which `run` enforces separately.
# `committed_share` / `resolved_share` are the complements of the
# issue's `failed_share` / `unresolved_share`: a metric may never read 0,
# and on a value near 1 a relative bound is an absolute one.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "wall", "lower", 0.25,
           "entry-script start to start of the measured window: imports + "
           "median of repeated (build cluster, start, warm-up)"),
    Metric("commits_per_wall_s", "txn/s", "wall", "higher", 0.25,
           "commits inside the window / wall seconds of the window (re-priced "
           "slice by slice for a host at the reference calibration speed), "
           "tracing off"),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.10,
           "ru_maxrss of the run's own process"),
    Metric("commits_per_sim_s", "txn/s", "sim", "higher", 0.12,
           "commits inside the window / simulated seconds of the window"),
    Metric("txn_p50_sim_ms", "ms", "sim", "lower", 0.12,
           "median begin(closed)/due(open) -> commit reply, committed "
           "transactions of the window's cohort"),
    Metric("txn_p95_sim_ms", "ms", "sim", "lower", 0.22,
           "95th percentile of the same (>= 10 samples beyond it)"),
    Metric("on_time_share", "share", "sim", "higher", 0.12,
           "cohort transactions committed within the workload's latency "
           "limit / attempted; a failed one misses the limit"),
    Metric("committed_share", "share", "sim", "higher", 0.05,
           "1 - failed_share; failed = aborted + failed + skipped + "
           "unknown, over attempted"),
    Metric("resolved_share", "share", "sim", "higher", 0.025,
           "1 - unresolved_share; unresolved = outcome unknown / attempted"),
    Metric("max_commit_gap_sim_ms", "ms", "sim", "lower", 0.25,
           "time without service: mean of the 50 longest stretches of the "
           "window with no commit anywhere"),
)

SIM_END_TO_END = tuple(m.name for m in END_TO_END if m.clock == "sim")


def _layer(*rows: tuple[str, str, str, str]) -> tuple[Metric, ...]:
    # rows: (name, unit, better, "<source>: doc").  Probes and profiler
    # shares are host time by construction; so is anything named *wall*.
    return tuple(
        Metric(name, unit,
               "wall" if doc[0] in "BP" or "wall" in name else "sim",
               better, None, doc)
        for name, unit, better, doc in rows)


# Source tags -- C: always-on counters read as window deltas; H: harness
# timers (simulated clock) around the client's public calls; T: span tree
# of the traced pass; P: profiler handler wall time, as a share; B: probe
# (host-clock timing of direct calls into a layer's public functions).
PER_LAYER: tuple[Metric, ...] = _layer(
    # sim
    ("sim.events_per_commit", "count", "lower",
     "C: engine events executed / commit"),
    ("sim.wall_us_per_event", "us", "lower",
     "C: reference-host window wall / events executed (untraced pass)"),
    ("sim.daemon_event_share", "share", "lower",
     "C: daemon (heartbeat) events / events"),
    ("sim.queue_high_water", "count", "lower",
     "C: engine.heap_high_water at window end"),
    ("sim.sched_pop_ns_d1e3", "ns", "lower",
     "B: schedule+pop holding 1e3 pending timers"),
    ("sim.sched_pop_ns_d1e5", "ns", "lower",
     "B: schedule+pop holding 1e5 pending timers"),
    ("sim.process_switch_ns", "ns", "lower",
     "B: one Process yield/resume through a Timeout"),
    ("sim.wall_share", "share", "lower",
     "P: handler wall in timers, events, the loop itself"),
    # kernel
    ("kernel.small_msgs_per_commit", "count", "lower",
     "C: Table 5-1 small messages / commit"),
    ("kernel.large_msgs_per_commit", "count", "lower",
     "C: large messages / commit"),
    ("kernel.pointer_msgs_per_commit", "count", "lower",
     "C: pointer messages / commit"),
    ("kernel.random_ios_per_commit", "count", "lower",
     "C: random paged I/Os / commit"),
    ("kernel.seq_reads_per_commit", "count", "lower",
     "C: sequential reads / commit"),
    ("kernel.primitive_sim_ms_per_commit", "ms", "lower",
     "C: sum of primitive times / commit"),
    ("kernel.cpu_sim_ms_per_commit", "ms", "lower",
     "C: component CPU ms / commit"),
    ("kernel.wall_share", "share", "lower", "P: port/message/paging handlers"),
    # comm
    ("comm.datagrams_per_commit", "count", "lower",
     "C: charged (protocol) datagrams / commit"),
    ("comm.net_lost_share", "share", "lower",
     "C: lost+undeliverable+blocked / datagrams sent"),
    ("comm.sessions_broken", "count", "lower", "C: sessions.broken"),
    ("comm.fd_suspicions", "count", "lower", "C: failure-detector suspicions"),
    ("comm.fd_false_suspicions", "count", "lower",
     "C: suspicions later withdrawn"),
    ("comm.fd_detect_sim_ms_p50", "ms", "lower",
     "H: crash -> first peer suspicion (fd_observers)"),
    ("comm.wall_share", "share", "lower",
     "P: network, CM and failure-detector handlers"),
    # rpc
    ("rpc.local_calls_per_commit", "count", "lower",
     "C: data-server-call primitives / commit"),
    ("rpc.remote_calls_per_commit", "count", "lower",
     "C: inter-node-call primitives / commit"),
    ("rpc.retries_per_commit", "count", "lower", "C: rpc.retries / commit"),
    ("rpc.call_sim_ms_p50", "ms", "lower", "H: median client call()"),
    ("rpc.self_sim_ms_per_commit", "ms", "lower",
     "T: RPC span self time / commit"),
    ("rpc.wall_share", "share", "lower",
     "P: client processes (stubs run inline in them)"),
    # nameserver
    ("nameserver.lookups_per_commit", "count", "lower",
     "H: client lookup_one() calls / commit"),
    ("nameserver.lookup_sim_ms_per_commit", "ms", "lower",
     "H: time inside lookup_one() / commit"),
    ("nameserver.wall_share", "share", "lower", "P: name-server process"),
    # server
    ("server.ops_per_commit", "count", "lower",
     "T: DS operation spans / commit"),
    ("server.self_sim_ms_per_commit", "ms", "lower",
     "T: DS span self time / commit"),
    ("server.wall_share", "share", "lower", "P: data-server processes"),
    # locking
    ("locking.waits_per_commit", "count", "lower", "C: lock.waits / commit"),
    ("locking.wait_sim_ms_per_commit", "ms", "lower",
     "C: lock.wait_ms total / commit"),
    ("locking.wait_sim_ms_p95", "ms", "lower",
     "T: p95 of lock.wait spans (0 under 200 waits)"),
    ("locking.timeouts", "count", "lower", "C: lock.timeouts"),
    ("locking.wait_depth_high_water", "count", "lower",
     "C: max lock.wait_depth gauge"),
    ("locking.self_sim_ms_per_commit", "ms", "lower",
     "T: LOCK span self time / commit"),
    # wal
    ("wal.forces_per_commit", "count", "lower",
     "C: physical log forces / commit"),
    ("wal.force_sim_ms_p50", "ms", "lower",
     "T: median wal.force / wal.group_force span"),
    ("wal.group_batch_mean", "count", "higher",
     "C: mean waiters per group force (0 = paper pipeline)"),
    ("wal.records_per_commit", "count", "lower",
     "T: log records appended / commit (log_store.observers)"),
    ("wal.log_bytes_per_commit", "B", "lower",
     "T: encoded record bytes / commit"),
    ("wal.self_sim_ms_per_commit", "ms", "lower",
     "T: WAL span self time / commit"),
    ("wal.encode_us_per_record", "us", "lower",
     "B: encode_record over a fixed 1000-record sample"),
    ("wal.decode_us_per_record", "us", "lower",
     "B: decode_record over the same sample"),
    ("wal.wall_share", "share", "lower",
     "P: log-force timers and group-commit flush"),
    # recovery
    ("recovery.spool_sim_ms_per_commit", "ms", "lower",
     "T: rm.spool span time / commit"),
    ("recovery.self_sim_ms_per_commit", "ms", "lower",
     "T: RM span self time / commit"),
    ("recovery.replays", "count", "lower",
     "C: recovery.replays in the window"),
    ("recovery.records_scanned_per_replay", "count", "lower",
     "C: recovery.records_scanned mean"),
    ("recovery.replay_sim_ms_p50", "ms", "lower",
     "T: median recovery.replay span"),
    ("recovery.wall_share", "share", "lower",
     "P: recovery-manager and supervisor processes"),
    # txn
    ("txn.begin_sim_ms_p50", "ms", "lower", "H: median begin_transaction()"),
    ("txn.commit_sim_ms_p50", "ms", "lower",
     "H: median end_transaction(), committed"),
    ("txn.commit_sim_ms_p95", "ms", "lower", "H: p95 of the same"),
    ("txn.prepare_sim_ms_per_commit", "ms", "lower",
     "T: 2pc.prepare span time / commit"),
    ("txn.phase2_sim_ms_per_commit", "ms", "lower",
     "T: 2pc.phase2 span time / commit"),
    ("txn.self_sim_ms_per_commit", "ms", "lower",
     "T: TM span self time / commit"),
    ("txn.multi_node_commit_share", "share", "lower",
     "C: commits spanning >= 2 nodes / TM commits"),
    ("txn.retransmits_per_commit", "count", "lower",
     "C: tm.commit_retransmits / commit"),
    ("txn.aborts_per_attempt", "count", "lower", "C: tm.aborts / attempted"),
    ("txn.coalesced_per_batch", "count", "higher",
     "C: coalesced 2PC payloads / batch datagram"),
    ("txn.wall_share", "share", "lower", "P: transaction-manager process"),
    # replication
    ("replication.read_failovers_per_attempt", "count", "lower",
     "C: replication.read_failover / attempted"),
    ("replication.degraded_write_share", "share", "lower",
     "C: write_all_degraded / replicated write_all calls"),
    ("replication.validation_aborts_per_attempt", "count", "lower",
     "C: replication.validation_abort / attempted"),
    ("replication.catchup_pages", "count", "lower",
     "C: replica.catchup_pages"),
    ("replication.catchup_skipped_peers", "count", "lower",
     "C: replication.catchup_skipped_peer"),
    ("replication.catchup_wait_sim_ms_p50", "ms", "lower",
     "T: median replica.catchup span (read barrier up)"),
    # reconfig
    ("reconfig.migration_sim_ms_p50", "ms", "lower",
     "H: intent -> done (ReconfigManager.events)"),
    ("reconfig.copy_sim_ms_p50", "ms", "lower", "H: extend -> barrier"),
    ("reconfig.copy_chunks", "count", "lower", "H: copy events"),
    ("reconfig.epoch_installs", "count", "lower",
     "C: reconfig.epoch_installs"),
    ("reconfig.stale_epoch_aborts_per_attempt", "count", "lower",
     "C: reconfig.stale_epoch_abort / attempted"),
    ("reconfig.migrations_committed", "count", "higher",
     "C: reconfig.migrations_committed"),
    ("reconfig.rollbacks", "count", "lower",
     "C: reconfig.migrations_rolled_back"),
    # app
    ("app.self_sim_ms_per_commit", "ms", "lower",
     "T: APP (root txn) span self time / commit"),
    ("app.txn_max_sim_ms", "ms", "lower", "H: slowest committed transaction"),
    ("app.budget_residual_sim_ms", "ms", "lower",
     "T: sum of the *.self_sim_ms_per_commit - mean root span; 0 where the "
     "tree is sequential"),
    # obs
    ("obs.trace_overhead_ratio", "ratio", "lower",
     "P: traced window wall / untraced window wall (both reference-host)"),
    ("obs.spans_per_commit", "count", "lower",
     "T: spans opened in the window / commit"),
    ("obs.sim_identical", "bool", "higher",
     "T: 1 if traced pass == untraced pass on every simulated metric"),
    # host
    ("host.calib_ops_per_s", "1/s", "higher",
     "B: median of the fixed pure-Python loop's speed, read between the "
     "window's slices"),
    ("host.calib_spread", "share", "lower",
     "B: interquartile distance / median of those readings"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed" | "open"
    loop: str
    #: simulated seconds of window per second of ``--seconds``; the window
    #: is a pure function of the argument so simulated metrics repeat
    sim_s_per_run_s: float
    #: a committed transaction is "on time" within this many simulated ms
    #: of its begin (closed loop) or due instant (open loop)
    latency_limit_sim_ms: float

    def window_sim_ms(self, seconds: float) -> float:
        return self.sim_s_per_run_s * seconds * 1000.0


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "disjoint_c8",
        "single-node baseline: 8 clients each write their own cell; no lock "
        "waits, 2PC or replication, so only sim/rpc/wal-force cost shows",
        "closed", 18.0, DEBITCREDIT_LIMIT_SIM_MS),
    Workload(
        "dc_2pc_c16",
        "composed write path: 16 DebitCredit clients on hot branch rows, "
        "group commit, ~13 % two-node 2PC; locking, wal and txn dominate",
        "closed", 8.0, DEBITCREDIT_LIMIT_SIM_MS),
    Workload(
        "dc_inquiry80_c16",
        "same cluster, 80 % read-only inquiries: shared locks behind the hot "
        "row's writers, commits that force no log; wal nearly bypassed",
        "closed", 8.0, DEBITCREDIT_LIMIT_SIM_MS),
    Workload(
        "dc_rf2_crash_open",
        "open loop at 1.5 txn/s over rf=2 with a node crash every 40 sim-s: "
        "failure detection, recovery, fail-over and in-doubt resolution",
        "open", 40.0, RF2_LIMIT_SIM_MS),
    Workload(
        "dc_rf2_migrate_open",
        "same open loop, no faults, four live shard migrations via a joined "
        "fifth node: isolates reconfig and is the crash run's control",
        "open", 40.0, RF2_LIMIT_SIM_MS),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def manifest() -> dict:
    """The root ``BENCHMARK.json``, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/tabsbench/run.py"],
        "paths": ["benchmarks/tabsbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
