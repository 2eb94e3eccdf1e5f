"""The traced pass: where one committed transaction's time goes.

A second execution of the same scenario with ``cluster.enable_tracing()``
and ``cluster.enable_profiling()`` on.  Both are passive, so the pass
replays the untraced one event for event; the per-layer block is read
from what they collected:

T  the span tree.  A span's *self time* is its duration minus the part of
   it its child spans cover; summed by span component it says which layer
   held a committed transaction, and for how long.  Where the tree is
   sequential the self times add up to the root span exactly
   (``app.budget_residual_sim_ms`` = 0); where children run in parallel
   (2PC fan-out, rf=2 write-all) or outlive their parent (lazy phase
   two) the residual is that overlap -- reported, not required to vanish.
P  the profiler's per-handler wall time, mapped to a layer by
   :data:`HANDLER_LAYER` and reported as a share of the window's wall.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.tracer import family_of
from repro.wal.codec import encode_record

from .measure import MIN_SAMPLES_BEYOND_TAIL, Pass, median_or_zero, percentile

#: span component -> layer (this repo's packages)
COMPONENT_LAYER = {
    "APP": "app", "RPC": "rpc", "DS": "server", "LOCK": "locking",
    "RM": "recovery", "WAL": "wal", "TM": "txn", "REPL": "replication",
    "RECOVERY": "recovery", "RECONFIG": "reconfig",
}
SELF_TIME_LAYERS = ("app", "rpc", "server", "locking", "recovery", "wal",
                    "txn")

#: profiler handler category -> layer, first match wins.  A category names
#: the event whose callback ran; the wall time is that of whatever it
#: resumed, so a timer or reply is booked to the layer that waits on it.
#: What matches nothing -- generic events, and the wall the event loop
#: spends between handlers -- is the simulator's own (``sim``).
HANDLER_LAYER: tuple[tuple[re.Pattern, str], ...] = tuple(
    (re.compile(pattern), layer) for pattern, layer in (
        (r"wal|stable_storage_write|GroupCommitPipeline", "wal"),
        (r":ns($|:)|ns-reply|name-server|Event:lookup", "nameserver"),
        (r":tm($|:)|tm-reply|cpu:TM|transaction-manager|DatagramCoalescer"
         r"|Event:(vote|ack|tm-recovered)|status-reply|abort-reply", "txn"),
        (r":rm($|:)|cpu:RM|recovery|spool-reply|rm-undo-reply|attach-reply",
         "recovery"),
        (r":cm($|:)|cpu:CM|communication-manager|^Network|^FailureDetector",
         "comm"),
        (r"rpc-reply|Timeout:timeout|^AnyOf|(Event:recv|Port):app:|cpu:APP"
         r"|:client$|:txn$|^OpenLoop", "rpc"),
        (r"_paged_io|sequential_read|_message|pager-reply|cpu:other"
         r"|^Node|^TabsNode", "kernel"),
        (r":ds:|cpu:DS|join-reply|Event:lock|^Process:", "server"),
    ))
WALL_SHARE_LAYERS = ("sim", "kernel", "comm", "rpc", "nameserver", "server",
                     "wal", "recovery", "txn")


def handler_layer(category: str) -> str:
    for pattern, layer in HANDLER_LAYER:
        if pattern.search(category):
            return layer
    return "sim"


class Instruments:
    """Tracer, profiler and log observers attached to one cluster."""

    def __init__(self, cluster) -> None:
        self.tracer = cluster.enable_tracing()
        self.profiler = cluster.enable_profiling()
        #: (simulated ms, encoded bytes) per log record appended
        self.log_appends: list[tuple[float, int]] = []
        engine = cluster.engine

        def observe(record) -> None:
            self.log_appends.append((engine.now,
                                     len(encode_record(record))))

        for tabs_node in cluster.nodes.values():
            tabs_node.log_store.observers.append(observe)
        cluster.node_join_hooks.append(
            lambda tabs_node: tabs_node.log_store.observers.append(observe))
        self._handler_wall_at_start: dict[str, float] = {}
        #: layer -> handler wall seconds inside the window
        self.handler_wall_by_layer: dict[str, float] = {}

    def _handler_wall(self) -> dict[str, float]:
        return {category: stat[1]
                for category, stat in self.profiler.handlers.items()}

    def mark_window_start(self) -> None:
        self._handler_wall_at_start = self._handler_wall()

    def mark_window_end(self) -> None:
        for category, wall in self._handler_wall().items():
            layer = handler_layer(category)
            self.handler_wall_by_layer[layer] = \
                self.handler_wall_by_layer.get(layer, 0.0) + wall \
                - self._handler_wall_at_start.get(category, 0.0)


def _covered(start: float, end: float, intervals: list[tuple]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def traced_layer_metrics(run: Pass, untraced: Pass) -> dict[str, float]:
    """Sources T and P over the traced pass ``run``."""
    s = run.scenario
    instruments: Instruments = s.instruments
    start, end = s.window_start_ms, s.window_end_ms
    commits = len(run.commit_instants)
    spans = instruments.tracer.spans
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    def closed_end(span) -> float:
        return span.end_ms if span.end_ms is not None else span.start_ms

    # Trees of the workload's transactions whose commit reply fell in the
    # window (catch-up, migration and audit transactions open root spans
    # too; they are not what a commit costs).
    families = {family_of(record.tid) for record in s.records
                if record.outcome == "committed"
                and start <= record.finish_ms < end}
    self_ms = dict.fromkeys(set(COMPONENT_LAYER.values()), 0.0)
    by_name = {"2pc.prepare": 0.0, "2pc.phase2": 0.0, "rm.spool": 0.0}
    ds_ops = 0
    roots = [span for span in children.get(0, ())
             if span.name == "txn" and span.family in families]
    root_ms = 0.0
    for root in roots:
        root_ms += closed_end(root) - root.start_ms
        stack = [root]
        while stack:
            span = stack.pop()
            kids = children.get(span.span_id, ())
            stack.extend(kids)
            span_end = closed_end(span)
            duration = span_end - span.start_ms
            layer = COMPONENT_LAYER.get(span.component, "app")
            self_ms[layer] += duration - _covered(
                span.start_ms, span_end,
                [(kid.start_ms, closed_end(kid)) for kid in kids])
            if span.name in by_name:
                by_name[span.name] += duration
            if span.component == "DS":
                ds_ops += 1

    def per_commit(total: float) -> float:
        return total / len(roots) if roots else 0.0

    def durations(*names: str) -> list[float]:
        return [closed_end(span) - span.start_ms for span in spans
                if span.name in names and start <= span.start_ms < end
                and span.end_ms is not None]

    lock_waits = durations("lock.wait")
    appends = [size for at, size in instruments.log_appends
               if start <= at < end]
    metrics = {
        f"{layer}.self_sim_ms_per_commit": per_commit(self_ms[layer])
        for layer in SELF_TIME_LAYERS}
    metrics.update({
        "app.budget_residual_sim_ms":
            per_commit(sum(self_ms.values()) - root_ms),
        "server.ops_per_commit": per_commit(ds_ops),
        "txn.prepare_sim_ms_per_commit": per_commit(by_name["2pc.prepare"]),
        "txn.phase2_sim_ms_per_commit": per_commit(by_name["2pc.phase2"]),
        "recovery.spool_sim_ms_per_commit": per_commit(by_name["rm.spool"]),
        "recovery.replay_sim_ms_p50":
            median_or_zero(durations("recovery.replay")),
        "replication.catchup_wait_sim_ms_p50":
            median_or_zero(durations("replica.catchup")),
        "locking.wait_sim_ms_p95":
            percentile(lock_waits, 0.95)
            if len(lock_waits) >= 20 * MIN_SAMPLES_BEYOND_TAIL else 0.0,
        "wal.force_sim_ms_p50":
            median_or_zero(durations("wal.force", "wal.group_force")),
        "wal.records_per_commit": len(appends) / commits if commits else 0.0,
        "wal.log_bytes_per_commit":
            sum(appends) / commits if commits else 0.0,
        "obs.spans_per_commit":
            sum(1 for span in spans if start <= span.start_ms < end)
            / commits if commits else 0.0,
        "obs.trace_overhead_ratio":
            run.window_reference_s / untraced.window_reference_s,
    })
    by_layer = instruments.handler_wall_by_layer
    for layer in WALL_SHARE_LAYERS:
        if layer != "sim":
            metrics[f"{layer}.wall_share"] = \
                by_layer.get(layer, 0.0) / run.window_wall_s
    metrics["sim.wall_share"] = 1.0 - sum(
        metrics[f"{layer}.wall_share"] for layer in WALL_SHARE_LAYERS
        if layer != "sim")
    return metrics


def dump_spans(instruments: Instruments, path: Path) -> None:
    """Write the spans kept in memory during the run, one JSON per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in instruments.tracer.spans:
            out.write(json.dumps({
                "id": span.span_id, "parent": span.parent_id,
                "name": span.name, "node": span.node,
                "component": span.component, "family": span.family,
                "start_ms": span.start_ms, "end_ms": span.end_ms,
                "attrs": {key: value for key, value in span.attrs.items()
                          if isinstance(value, (str, int, float, bool))},
            }) + "\n")
