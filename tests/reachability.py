"""Reached or gone: every function under ``src/repro`` is called.

A pytest plugin.  Load it with ``-p tests.reachability`` over the suite
and the paper benchmarks in one session::

    PYTHONPATH=src python -m pytest -p tests.reachability \\
        tests benchmarks --ignore=benchmarks/tabsbench

It records every code object the session calls (``sys.setprofile`` and
``threading.setprofile``), lists every ``def`` under ``src/repro`` with
``ast`` and fails the session on a function that was never called,
unless :data:`ALLOWED` names it with a reason, and on an allowlisted
function that was called, so the list cannot go stale.  It writes
``reachability.json`` (called, never called, the allowlist) to the
directory pytest runs in.

A word count (``tests/obs/test_structure.py``) cannot see a method whose
name is a common word; a call can.  A function only a subprocess or a
pool worker runs is invisible here and belongs on the allowlist.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: functions no session call reaches, by ``<path under src/repro>::<qualname>``
ALLOWED = {
    "perf/runner.py::_run_indexed":
        "runs in a pool worker process, which the profile hook does not "
        "follow; tests/perf/test_runner.py checks its results",
    **{f"kernel/vm.py::PagerClient.{hook}":
       "abstract hook (raises NotImplementedError); the Recovery "
       "Manager's pager client overrides it"
       for hook in ("first_modified", "write_permission", "page_written")},
    **{f"workloads/harness.py::SeededWorkload.{hook}":
       "abstract hook (raises NotImplementedError); ChaosWorkload and "
       "DebitCreditWorkload supply it"
       for hook in ("client_node", "body", "trace_fields")},
    "replication/server.py::ReplicatedServerMixin.serialising_oid":
        "the hook's default for a server without a read-modify-write op; "
        "both replicated DebitCredit servers override it",
    **{f"wal/records.py::{record}.size_bytes":
       "an estimate only benchmarks/bench_ablations.py sums, over value "
       "and operation records; replacing the estimates moves "
       "benchmarks/results/ablation_logging.txt"
       for record in ("LogRecord", "PageDirtyRecord",
                      "ServerPrepareRecord")},
    **{name: "read by a person (a failure message, a debugger), never by "
             "the program"
       for name in ("errors.py::LogMediaCorruption.__str__",
                    "errors.py::PageCorruption.__str__",
                    "kernel/messages.py::Message.__repr__",
                    "kernel/node.py::Node.__repr__",
                    "kernel/ports.py::Port.__repr__",
                    "reconfig/epoch.py::PlacementEpoch.__repr__",
                    "recovery/audit.py::AuditViolation.__str__",
                    "sim/process.py::_Parked.__repr__")},
}

REPORT = "reachability.json"


def definitions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> "<path>::<qualname>"`` for every def.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line when there is one.
    """
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [decorator.lineno for decorator
                                                 in child.decorator_list])
                    found[(str(path), line)] = \
                        f"{relative}::{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


class Reachability:
    def __init__(self) -> None:
        #: (file, first line) of every code object called: a set of code
        #: objects would do, but equal code in two files compares equal
        self.called: set = set()
        self.never = self.stale = self.unknown = []

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.called.add((code.co_filename, code.co_firstlineno))

    def start(self) -> None:
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def pytest_sessionfinish(self, session):
        sys.setprofile(None)
        threading.setprofile(None)
        paths = {name: str(Path(name).resolve()) for name, _ in self.called}
        called = {(paths[name], line) for name, line in self.called}
        names = definitions()
        reached = {name for key, name in names.items() if key in called}
        unreached = set(names.values()) - reached
        self.never = sorted(unreached - set(ALLOWED))
        self.stale = sorted(set(ALLOWED) & reached)
        self.unknown = sorted(set(ALLOWED) - set(names.values()))
        Path(REPORT).write_text(json.dumps({
            "called": sorted(reached),
            "never_called": sorted(unreached),
            "allowed": ALLOWED,
        }, indent=1) + "\n")
        if self.never or self.stale or self.unknown:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        write = terminalreporter.write_line
        for title, names in (
                ("never called: test it through the program's path, or "
                 "delete it", self.never),
                ("called, yet on the allowlist: take it off", self.stale),
                ("on the allowlist, but not defined", self.unknown)):
            if names:
                terminalreporter.section(f"reachability -- {title}")
                for name in names:
                    write(name)


_HOOK = Reachability()


def pytest_load_initial_conftests(early_config, parser, args):
    """Before the first conftest imports ``repro``: module-level calls
    count too."""
    _HOOK.start()


def pytest_configure(config):
    config.pluginmanager.register(_HOOK, "reachability-hook")
