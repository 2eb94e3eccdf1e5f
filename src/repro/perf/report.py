"""Text rendering of the reproduced tables, paper-vs-ours side by side."""

from __future__ import annotations

from repro.kernel.costs import CostProfile, Primitive, round_count
from repro.perf.benchmarks import BenchmarkResult
from repro.perf.model import (
    COMMIT_PROTOCOL_OF,
    PAPER_TABLE_5_2,
    PAPER_TABLE_5_3,
    PAPER_TABLE_5_4,
)

P = Primitive

_PRIMITIVE_LABELS = {
    P.DATA_SERVER_CALL: "Data Server Call",
    P.INTER_NODE_DATA_SERVER_CALL: "Inter-Node Data Server Call",
    P.DATAGRAM: "Datagram",
    P.SMALL_MESSAGE: "Small Contiguous Message",
    P.LARGE_MESSAGE: "Large Contiguous Message",
    P.POINTER_MESSAGE: "Pointer Message",
    P.RANDOM_PAGED_IO: "Random Access Paged I/O",
    P.SEQUENTIAL_READ: "Sequential Read",
    P.STABLE_STORAGE_WRITE: "Stable Storage Write",
}


def format_row(cells: list[str], widths: list[int]) -> str:
    return "  ".join(cell.rjust(width) if index else cell.ljust(width)
                     for index, (cell, width) in
                     enumerate(zip(cells, widths)))


def render_table(title: str, header: list[str],
                 rows: list[list[str]]) -> str:
    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              if rows else len(header[i]) for i in range(len(header))]
    lines = [title, "=" * len(title), format_row(header, widths),
             format_row(["-" * w for w in widths], widths)]
    lines.extend(format_row(row, widths) for row in rows)
    return "\n".join(lines)


def render_metrics(registry) -> str:
    """Per-node counters, gauges, and latency histograms of one run.

    Reads a :class:`repro.obs.MetricsRegistry`.  Rows sort by
    ``(node, name)``, so two same-seed runs render identically.
    """
    sections = []
    counters = registry.counters()
    if counters:
        rows = [[node, name, str(metric.value)]
                for (node, name), metric in sorted(counters.items())]
        sections.append(render_table(
            "Counters", ["node", "counter", "count"], rows))
    gauges = registry.gauges()
    if gauges:
        rows = [[node, name, str(metric.value), str(metric.high_water)]
                for (node, name), metric in sorted(gauges.items())]
        sections.append(render_table(
            "Gauges", ["node", "gauge", "value", "max"], rows))
    histograms = registry.histograms()
    if histograms:
        rows = [[node, name, str(metric.count), f"{metric.mean:.2f}",
                 f"{metric.p50:.2f}", f"{metric.p95:.2f}",
                 f"{metric.p99:.2f}",
                 f"{metric.min if metric.min is not None else 0.0:.2f}",
                 f"{metric.max if metric.max is not None else 0.0:.2f}"]
                for (node, name), metric in sorted(histograms.items())]
        sections.append(render_table(
            "Latency histograms (ms)",
            ["node", "histogram", "n", "mean", "p50", "p95", "p99",
             "min", "max"], rows))
    return "\n\n".join(sections) if sections else "no metrics recorded"


def render_table_5_1(measured: dict[Primitive, float],
                     paper_profile: CostProfile) -> str:
    rows = [[_PRIMITIVE_LABELS[p], f"{measured[p]:.1f}",
             f"{paper_profile.time_of(p):.1f}"]
            for p in Primitive]
    return render_table(
        "Table 5-1: Primitive Operation Times (ms)",
        ["Primitive", "measured (sim)", "paper"], rows)


def _fmt(value: float | None) -> str:
    """Render a count, rounding (half-even) at the report boundary only.

    Without the rounding, an exact-in-spirit count like ``3.0000000000004``
    (floating-point dust from per-iteration averaging) would print as
    ``3.00`` while its neighbours print ``3``.
    """
    if value is None:
        return "?"
    value = round_count(value)
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def render_table_5_2(results: list[BenchmarkResult]) -> str:
    header = ["Benchmark", "DSC", "rDSC", "small", "large", "seq", "rand",
              "| paper:", "DSC", "rDSC", "small", "large", "seq", "rand"]
    rows = []
    for result in results:
        counts = result.precommit_counts
        paper = PAPER_TABLE_5_2.get(result.spec.key)
        rows.append([
            result.spec.title,
            _fmt(counts.get(P.DATA_SERVER_CALL, 0)),
            _fmt(counts.get(P.INTER_NODE_DATA_SERVER_CALL, 0)),
            _fmt(counts.get(P.SMALL_MESSAGE, 0)),
            _fmt(counts.get(P.LARGE_MESSAGE, 0)),
            _fmt(counts.get(P.SEQUENTIAL_READ, 0)),
            _fmt(counts.get(P.RANDOM_PAGED_IO, 0)),
            "|",
            _fmt(paper.ds_calls if paper else None),
            _fmt(paper.remote_ds_calls if paper else None),
            _fmt(paper.small if paper else None),
            _fmt(paper.large if paper else None),
            _fmt(paper.sequential_reads if paper else None),
            _fmt(paper.random_page_io if paper else None),
        ])
    return render_table(
        "Table 5-2: Pre-Commit Primitive Counts (measured | paper)",
        header, rows)


def render_table_5_3(results: list[BenchmarkResult]) -> str:
    from repro.perf.pathmodel import TABLE_5_3_PATHS

    header = ["Benchmark (commit protocol)", "dg", "small", "large", "ptr",
              "stable", "| path:", "dg", "small", "stable",
              "| paper path:", "dg", "small", "large", "ptr", "stable"]
    rows = []
    seen_protocols = set()
    for result in results:
        protocol = COMMIT_PROTOCOL_OF.get(result.spec.key)
        if protocol in seen_protocols:
            continue
        seen_protocols.add(protocol)
        counts = result.commit_counts
        paper = PAPER_TABLE_5_3.get(protocol)
        path = TABLE_5_3_PATHS.get(protocol)
        rows.append([
            f"{result.spec.title} ({protocol})",
            _fmt(counts.get(P.DATAGRAM, 0)),
            _fmt(counts.get(P.SMALL_MESSAGE, 0)),
            _fmt(counts.get(P.LARGE_MESSAGE, 0)),
            _fmt(counts.get(P.POINTER_MESSAGE, 0)),
            _fmt(counts.get(P.STABLE_STORAGE_WRITE, 0)),
            "|",
            _fmt(path.datagrams if path else None),
            _fmt(path.small if path else None),
            _fmt(path.stable_writes if path else None),
            "|",
            _fmt(paper.datagrams if paper else None),
            _fmt(paper.small if paper else None),
            _fmt(paper.large if paper else None),
            _fmt(paper.pointer if paper else None),
            _fmt(paper.stable_writes if paper else None),
        ])
    return render_table(
        "Table 5-3: Commit Primitive Counts "
        "(measured totals | our longest path | paper longest path)",
        header, rows)


def render_table_5_4(rows_data) -> str:
    header = ["Benchmark", "pred", "proc", "elapsed", "improved", "newprim",
              "| paper:", "pred", "proc", "elapsed", "improved", "newprim"]
    rows = []
    for row in rows_data:
        paper = PAPER_TABLE_5_4.get(row.spec.key)
        rows.append([
            row.spec.title,
            _fmt(round(row.predicted_ms)),
            _fmt(round(row.tabs_process_ms)),
            _fmt(round(row.elapsed_ms)),
            _fmt(round(row.improved_ms)),
            _fmt(round(row.new_primitives_ms)),
            "|",
            _fmt(paper.predicted if paper else None),
            _fmt(paper.tabs_process if paper else None),
            _fmt(paper.elapsed if paper else None),
            _fmt(paper.improved_architecture if paper else None),
            _fmt(paper.new_primitive_times if paper else None),
        ])
    return render_table(
        "Table 5-4: Benchmark Times in ms (ours | paper)", header, rows)


def render_table_5_5(measured: dict[Primitive, float],
                     paper_profile: CostProfile) -> str:
    rows = [[_PRIMITIVE_LABELS[p], f"{measured[p]:.1f}",
             f"{paper_profile.time_of(p):.2f}"]
            for p in Primitive]
    return render_table(
        "Table 5-5: Achievable Primitive Operation Times (ms)",
        ["Primitive", "measured (sim)", "paper"], rows)
