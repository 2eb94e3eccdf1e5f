"""Shared driver for the chaos torture scenarios.

Every scenario follows the same shape: build a cluster, install a fault
plan, fire a seeded randomized workload into it, repair + quiesce, then
audit the transaction guarantees.  The scenarios differ only in the plan
and the seed -- which is the point: the invariants must hold under *any*
fault schedule.
"""

from dataclasses import dataclass

from repro.chaos import ChaosController, ChaosWorkload, FaultPlan
from repro.chaos.workload import build_cluster
from repro.wal.records import TransactionStatusRecord


@dataclass
class ScenarioRun:
    cluster: object
    controller: ChaosController
    workload: ChaosWorkload
    report: object
    quiet: bool

    def assert_clean(self) -> None:
        __tracebackhide__ = True
        assert self.quiet, "simulation failed to quiesce after repair"
        assert self.report.ok, "invariant violations:\n" + "\n".join(
            f"  {violation}" for violation in self.report.violations)

    def trace_kinds(self) -> set:
        return {entry[1] for entry in self.controller.trace}

    def events(self, kind: str) -> list:
        return [entry for entry in self.controller.trace
                if entry[1] == kind]


def run_scenario(plan: FaultPlan, seed: int, node_count: int = 3,
                 with_queue: bool = False, transfers: int = 12,
                 enqueues: int = 0, run_ms: float = 6_000.0,
                 trace_network: bool = False,
                 spacing_ms: float = 120.0,
                 archive_dump_at_ms: float | None = None,
                 instrument=None,
                 **config_overrides) -> ScenarioRun:
    """Build, torture, repair, audit.  Deterministic in ``(plan, seed)``.

    ``archive_dump_at_ms`` schedules an archive dump on every node (the
    base image corruption scenarios repair media from); it is opt-in so
    historical plans replay byte-identically.  ``instrument`` (if given)
    receives the freshly built cluster before any traffic -- the
    profiled-goldens test uses it to flip on observability that must not
    perturb the run.  ``config_overrides`` are forwarded to
    :class:`TabsConfig` (e.g. ``commit=CommitConfig.grouped()`` to
    torture the group-commit pipeline).
    """
    cluster = build_cluster(node_count, with_queue=with_queue, seed=seed,
                            **config_overrides)
    if instrument is not None:
        instrument(cluster)
    controller = ChaosController(cluster, plan, seed=seed,
                                 trace_network=trace_network)
    workload = ChaosWorkload(cluster, controller, seed=seed)
    workload.setup()
    controller.install()
    if archive_dump_at_ms is not None:
        workload.schedule_archive_dumps(archive_dump_at_ms)
    workload.schedule_traffic(transfers=transfers, enqueues=enqueues,
                              spacing_ms=spacing_ms)
    quiet, report = workload.play(run_ms)
    return ScenarioRun(cluster, controller, workload, report, quiet)


class DurableWitness:
    """A test-side observer on every node's log store: each status record
    that turns durable, as ``(instant, node, record)``.

    Pass it as ``instrument`` so it is wired before any traffic; it then
    tells, independently of the controller, the instant a log trigger's
    boundary was reached.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def __call__(self, cluster) -> None:
        for name, tabs_node in cluster.nodes.items():
            tabs_node.log_store.observers.append(
                lambda record, node=name: self._note(cluster, node, record))

    def _note(self, cluster, node: str, record) -> None:
        if (isinstance(record, TransactionStatusRecord)
                and record.tid is not None):
            self.records.append((cluster.engine.now, node, record))

    def _first(self, point: tuple, family) -> float:
        return min(instant for instant, node, record in self.records
                   if (node, record.status.value) == point
                   and record.tid.toplevel == family)

    def assert_fired_at_boundary(self, trace: list, action) -> str:
        """``action`` (a :class:`CrashWhenLogged`) fired exactly once, and
        its ``trigger`` and ``crash`` entries carry the instant its family
        first held every ``seen`` point.  Returns the reported tid."""
        __tracebackhide__ = True
        triggers = [entry for entry in trace if entry[1] == "trigger"]
        assert len(triggers) == 1, f"trigger fired {len(triggers)} times"
        at, _, crash_node, tid, _ = triggers[0]
        family = next(record.tid.toplevel
                      for _, node, record in self.records
                      if str(record.tid) == tid
                      and (node, record.status.value) == action.seen[0])
        boundary = max(self._first(point, family) for point in action.seen)
        crash = next(entry for entry in trace
                     if entry[1] == "crash" and entry[2] == crash_node
                     and entry[0] >= at)
        assert at == crash[0] == boundary, (at, crash[0], boundary)
        return tid
