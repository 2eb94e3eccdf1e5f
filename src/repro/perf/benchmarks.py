"""The fourteen benchmark transactions of Section 5.

Benchmarks exercise four dimensions of system behaviour: read-only versus
update; no paging, sequential paging, or random paging; single versus
multiple operations; and one, two, or three nodes.  Each is "as simple as
possible consistent with forming a basis for estimating the performance of
other transactions".

The runner executes a benchmark transaction repeatedly under no load on a
freshly built cluster, discards the warm-up transient, and reports average
elapsed time, per-phase primitive counts, and TABS system-process CPU time
-- the same quantities Tables 5-2, 5-3, and 5-4 tabulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.cluster import TabsCluster
from repro.core.config import TabsConfig
from repro.kernel.costs import Phase, Primitive
from repro.kernel.disk import PAGE_SIZE
from repro.servers.int_array import WORD_SIZE, IntegerArrayServer

CELLS_PER_PAGE = PAGE_SIZE // WORD_SIZE

#: Size of the paging benchmark's array: "This array is 5000 pages, which
#: is more than three times the available physical memory".
PAGED_ARRAY_PAGES = 5000

#: Effective page-buffer size during the paging benchmarks.  A Perq with
#: TABS running leaves well under a third of the 5000-page array resident;
#: 700 frames reproduces the paper's measured 0.86 page I/Os per
#: random-read transaction (1 - 700/5000 = 0.86).
BENCH_VM_CAPACITY_PAGES = 700


@dataclass(frozen=True)
class OpSpec:
    """One data-server operation inside a benchmark transaction."""

    node_index: int  # 0 = the application's own node
    kind: str        # "read" | "write"
    paging: str      # "none" | "sequential" | "random"


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Tables 5-2 / 5-4."""

    key: str
    title: str
    operations: tuple[OpSpec, ...]

    @property
    def node_count(self) -> int:
        return max(op.node_index for op in self.operations) + 1

    @property
    def is_update(self) -> bool:
        return any(op.kind == "write" for op in self.operations)


def _ops(count: int, node: int, kind: str, paging: str = "none"):
    return tuple(OpSpec(node, kind, paging) for _ in range(count))


BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec("r1", "1 Local Read, No Paging", _ops(1, 0, "read")),
    BenchmarkSpec("r5", "5 Local Read, No Paging", _ops(5, 0, "read")),
    BenchmarkSpec("r1_seq", "1 Local Read, Seq. Paging",
                  _ops(1, 0, "read", "sequential")),
    BenchmarkSpec("r1_rand", "1 Local Read, Random Paging",
                  _ops(1, 0, "read", "random")),
    BenchmarkSpec("w1", "1 Local Write, No Paging", _ops(1, 0, "write")),
    BenchmarkSpec("w5", "5 Local Write, No Paging", _ops(5, 0, "write")),
    BenchmarkSpec("w1_seq", "1 Local Write, Seq. Paging",
                  _ops(1, 0, "write", "sequential")),
    BenchmarkSpec("r1r1", "1 Lcl Rd, 1 Rem Rd, No Paging",
                  _ops(1, 0, "read") + _ops(1, 1, "read")),
    BenchmarkSpec("r1r5", "1 Lcl Rd, 5 Rem Rd, No Paging",
                  _ops(1, 0, "read") + _ops(5, 1, "read")),
    BenchmarkSpec("r1r1_seq", "1 Lcl Rd, 1 Rem Rd, Seq. Paging",
                  _ops(1, 0, "read", "sequential")
                  + _ops(1, 1, "read", "sequential")),
    BenchmarkSpec("w1w1", "1 Lcl Wr, 1 Rem Wr, No Paging",
                  _ops(1, 0, "write") + _ops(1, 1, "write")),
    BenchmarkSpec("w1w1_seq", "1 Lcl Wr, 1 Rem Wr, Seq. Paging",
                  _ops(1, 0, "write", "sequential")
                  + _ops(1, 1, "write", "sequential")),
    BenchmarkSpec("r1r1r1", "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP",
                  _ops(1, 0, "read") + _ops(1, 1, "read")
                  + _ops(1, 2, "read")),
    BenchmarkSpec("w1w1w1", "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP",
                  _ops(1, 0, "write") + _ops(1, 1, "write")
                  + _ops(1, 2, "write")),
)

BENCHMARKS_BY_KEY = {spec.key: spec for spec in BENCHMARKS}


@dataclass
class BenchmarkResult:
    """Per-transaction averages over the measured iterations."""

    spec: BenchmarkSpec
    config: TabsConfig
    iterations: int
    elapsed_ms: float
    #: primitive counts per phase, averaged per transaction
    precommit_counts: dict[Primitive, float] = field(default_factory=dict)
    commit_counts: dict[Primitive, float] = field(default_factory=dict)
    #: CPU ms per transaction for the TABS system processes (TM/RM/CM)
    tabs_process_ms: float = 0.0
    #: primitive time per transaction (the predicted-by-primitives sum)
    primitive_time_ms: float = 0.0


class _Paginator:
    """Chooses the cell each operation touches, per the paging mode."""

    def __init__(self, ctx_random) -> None:
        self.random = ctx_random
        # Start past the prefilled frames so sequential access faults from
        # the first measured transaction (steady state).
        self._sequential_page = BENCH_VM_CAPACITY_PAGES

    def cell_for(self, op: OpSpec, iteration: int) -> int:
        if op.paging == "none":
            return 1
        if op.paging == "sequential":
            self._sequential_page = (self._sequential_page + 1) % \
                PAGED_ARRAY_PAGES
            return self._sequential_page * CELLS_PER_PAGE + 1
        page = self.random.randrange(PAGED_ARRAY_PAGES)
        return page * CELLS_PER_PAGE + 1


def build_benchmark_cluster(spec: BenchmarkSpec,
                            config: TabsConfig) -> TabsCluster:
    """A cluster with one array server per participating node."""
    cluster = TabsCluster(config.with_(
        vm_capacity_pages=min(config.vm_capacity_pages,
                              BENCH_VM_CAPACITY_PAGES)))
    for index in range(spec.node_count):
        name = f"node{index}"
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"array{index}"))
    cluster.start()
    return cluster


def _prefill_page_cache(cluster: TabsCluster, spec: BenchmarkSpec) -> None:
    """Fill each paging node's buffer so measurement starts in steady state.

    Read benchmarks prefill with clean pages (evictions are free); write
    benchmarks prefill with dirty ones, so every measured eviction pays the
    write-back conversation a long-running system would pay.
    """
    nodes_paging = {op.node_index for op in spec.operations
                    if op.paging != "none"}
    dirty = spec.is_update
    for index in nodes_paging:
        node = cluster.node(f"node{index}").node
        segment_id = f"node{index}:array{index}"

        def prefill(node=node, segment_id=segment_id):
            for page in range(node.vm.capacity_pages):
                if dirty:
                    from repro.kernel.vm import ObjectID
                    yield from node.vm.write_object(
                        ObjectID(segment_id, page * PAGE_SIZE, WORD_SIZE),
                        0)
                else:
                    yield from node.vm.ensure_resident(segment_id, page)

        cluster.run_on(f"node{index}", prefill())


def run_benchmark(spec: BenchmarkSpec, config: TabsConfig | None = None,
                  iterations: int = 20,
                  warmup: int = 2,
                  instrument: Callable[[TabsCluster], None] | None = None,
                  ) -> BenchmarkResult:
    """Execute one benchmark and average the measured iterations.

    ``instrument``, when given, is called with the freshly built cluster
    before any transaction runs -- the hook the trace CLI and tests use to
    call :meth:`~repro.core.cluster.TabsCluster.enable_tracing` (or attach
    any other passive observer) without rebuilding the runner.
    """
    config = config or TabsConfig()
    cluster = build_benchmark_cluster(spec, config)
    if instrument is not None:
        instrument(cluster)
    _prefill_page_cache(cluster, spec)
    app = cluster.application("node0", measured=True)
    paginators = [_Paginator(cluster.ctx.random)
                  for _ in range(len(spec.operations))]

    # Resolve references once, in the background phase, as a real
    # application would (name dissemination is not part of the benchmark).
    refs = {}
    for op in spec.operations:
        if op.node_index not in refs:
            refs[op.node_index] = cluster.run_on(
                "node0", app.lookup_one(f"array{op.node_index}"))

    def one_transaction(iteration: int):
        tid = yield from app.begin_transaction()
        for op_index, op in enumerate(spec.operations):
            cell = paginators[op_index].cell_for(op, iteration)
            operation = "get_cell" if op.kind == "read" else "set_cell"
            body = {"cell": cell}
            if op.kind == "write":
                body["value"] = iteration + 1
            yield from app.call(refs[op.node_index], operation, body, tid)
        committed = yield from app.end_transaction(tid)
        assert committed, f"benchmark transaction aborted ({spec.key})"

    for iteration in range(warmup):
        cluster.run_on("node0", one_transaction(iteration))
    cluster.settle()

    meter = cluster.meter
    meter.reset()
    started = cluster.engine.now
    for iteration in range(iterations):
        cluster.run_on("node0", one_transaction(warmup + iteration))
    elapsed = (cluster.engine.now - started) / iterations
    cluster.settle()  # drain trailing asynchronous work before reading CPU

    def per_txn(counts: dict) -> dict:
        return {prim: count / iterations for prim, count in counts.items()}

    return BenchmarkResult(
        spec=spec, config=config, iterations=iterations,
        elapsed_ms=elapsed,
        precommit_counts=per_txn(meter.phase_counts(Phase.PRE_COMMIT)),
        commit_counts=per_txn(meter.phase_counts(Phase.COMMIT)),
        tabs_process_ms=meter.total_cpu(("TM", "RM", "CM")) / iterations,
        primitive_time_ms=(
            meter.primitive_time.get(Phase.PRE_COMMIT, 0.0)
            + meter.primitive_time.get(Phase.COMMIT, 0.0)) / iterations,
    )
