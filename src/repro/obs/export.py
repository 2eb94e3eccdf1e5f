"""Exporters: Chrome trace-event JSON (Perfetto) and compact JSONL.

The Chrome trace-event format maps naturally onto the simulation: one
"process" per simulated node, one "thread" per Figure 3-1 component (APP,
DS, RPC, LOCK, WAL, RM, TM, CM, NET, KERNEL, ...).  Spans become "X"
(complete) events, instant events become "i", and "M" metadata events name
the tracks.  Timestamps are simulated milliseconds scaled to microseconds,
the unit Perfetto expects.

Byte determinism is part of the contract: output is built from
insertion-ordered lists and sorted dicts and serialised with
``sort_keys=True`` and fixed separators, so two same-seed runs produce
identical files (the CI trace-determinism job diffs them).
"""

from __future__ import annotations

import json

from repro.obs.tracer import Tracer

#: Stable thread ordering per node: known components first, in the order a
#: transaction descends the stack, then anything novel alphabetically.
COMPONENT_ORDER = [
    "APP", "DS", "RPC", "LOCK", "WAL", "RM", "TM", "CM", "NS", "NET",
    "KERNEL", "RECOVERY",
]


def _microseconds(time_ms: float) -> int:
    return int(round(time_ms * 1000.0))


def _track_ids(tracer: Tracer) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """Assign pids to nodes and tids to (node, component) tracks."""
    nodes: list[str] = []
    components: dict[str, list[str]] = {}
    for span in tracer.spans:
        if span.node not in components:
            nodes.append(span.node)
            components[span.node] = []
        if span.component not in components[span.node]:
            components[span.node].append(span.component)
    for event in tracer.events:
        if event.node not in components:
            nodes.append(event.node)
            components[event.node] = []
        if event.component not in components[event.node]:
            components[event.node].append(event.component)

    def component_rank(name: str):
        try:
            return (COMPONENT_ORDER.index(name), "")
        except ValueError:
            return (len(COMPONENT_ORDER), name)

    pids = {node: index + 1 for index, node in enumerate(sorted(nodes))}
    tids: dict[tuple[str, str], int] = {}
    for node in sorted(nodes):
        for index, component in enumerate(
                sorted(components[node], key=component_rank)):
            tids[(node, component)] = index + 1
    return pids, tids


def _span_args(span, tracer: Tracer) -> dict:
    args = {"span_id": span.span_id, "parent_id": span.parent_id}
    if span.family:
        args["txn"] = span.family
    if span.open:
        args["open_at_export"] = True
    for key in sorted(span.attrs):
        args[key] = span.attrs[key]
    return args


def chrome_trace(tracer: Tracer) -> dict:
    """The trace as a Chrome trace-event object (``traceEvents`` + meta)."""
    pids, tids = _track_ids(tracer)
    end_bound = tracer.last_time_ms()
    events: list[dict] = []
    for node in sorted(pids):
        events.append({
            "ph": "M", "name": "process_name", "pid": pids[node], "tid": 0,
            "args": {"name": f"node {node}"},
        })
    for (node, component) in sorted(tids):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pids[node],
            "tid": tids[(node, component)], "args": {"name": component},
        })
    for span in tracer.spans:
        end_ms = span.end_ms if span.end_ms is not None else end_bound
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.component,
            "pid": pids[span.node],
            "tid": tids[(span.node, span.component)],
            "ts": _microseconds(span.start_ms),
            "dur": max(0, _microseconds(end_ms) - _microseconds(span.start_ms)),
            "args": _span_args(span, tracer),
        })
    for event in tracer.events:
        args = {"event_id": event.event_id}
        if event.family:
            args["txn"] = event.family
        for key in sorted(event.attrs):
            args[key] = event.attrs[key]
        events.append({
            "ph": "i",
            "name": event.name,
            "cat": event.component,
            "pid": pids[event.node],
            "tid": tids[(event.node, event.component)],
            "ts": _microseconds(event.time_ms),
            "s": "t",
            "args": args,
        })
    return {
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "unit": "us"},
        "traceEvents": events,
    }


def chrome_trace_json(tracer: Tracer) -> str:
    """Byte-deterministic serialisation of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(tracer), sort_keys=True,
                      separators=(",", ":"))


def jsonl_events(tracer: Tracer) -> str:
    """Compact one-record-per-line log: spans then instants, by id."""
    records: list[tuple[int, dict]] = []
    for span in tracer.spans:
        records.append((span.span_id, {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "node": span.node,
            "component": span.component,
            "txn": span.family,
            "start_ms": span.start_ms,
            "end_ms": span.end_ms,
            "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
        }))
    for event in tracer.events:
        records.append((event.event_id, {
            "type": "event",
            "id": event.event_id,
            "name": event.name,
            "node": event.node,
            "component": event.component,
            "txn": event.family,
            "time_ms": event.time_ms,
            "attrs": {key: event.attrs[key] for key in sorted(event.attrs)},
        }))
    records.sort(key=lambda pair: pair[0])
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for _, record in records]
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_json(registry) -> str:
    """Byte-deterministic serialisation of a metrics snapshot."""
    return json.dumps(registry.snapshot(), sort_keys=True,
                      separators=(",", ":"))


# -- profiler exports ---------------------------------------------------------
#
# Wall-clock profiles are inherently nondeterministic (the numbers are
# real time), so unlike the trace exporters above these promise only
# *shape* determinism: the frame set and ordering are pure functions of
# the run, only the sample values vary.

def collapsed_stacks(profiler) -> str:
    """The profile as collapsed-stack flamegraph text.

    One line per handler category -- ``sim;Type;label value`` -- where
    the value is cumulative wall time in integer microseconds, the input
    ``flamegraph.pl`` and speedscope both accept.  Category segments
    (``Process:client``) become stack frames under a common ``sim``
    root.
    """
    lines = []
    for category in sorted(profiler.handlers):
        count, wall_s = profiler.handlers[category]
        frames = ["sim"] + [frame for frame in category.split(":") if frame]
        micros = int(round(wall_s * 1e6))
        lines.append(f"{';'.join(frames)} {max(micros, 1)}")
    return "\n".join(lines) + ("\n" if lines else "")


def pstats_table(profiler) -> dict:
    """The profile as a ``pstats``-shaped stats dict.

    Keys are ``(filename, line, function)`` triples; values are the
    ``(call_count, primitive_calls, total_time, cumulative_time,
    callers)`` tuples ``pstats.Stats`` expects.  Each handler category
    maps to one flat entry (the event loop has no call hierarchy worth
    faking).
    """
    return {("sim", 0, category): (count, count, wall_s, wall_s, {})
            for category, (count, wall_s) in profiler.handlers.items()}


def write_pstats(profiler, path) -> None:
    """Dump the profile where ``pstats.Stats(path)`` can load it."""
    import marshal

    with open(path, "wb") as handle:
        marshal.dump(pstats_table(profiler), handle)
