"""Reached or gone: every function under ``src/repro`` is called by the
program.

A pytest plugin.  Load it with ``-p tests.reachability`` over the suite
and the paper benchmarks in one session::

    PYTHONPATH=src python -m pytest -p tests.reachability \\
        tests benchmarks --ignore=benchmarks/tabsbench

It records every code object under ``src/repro`` that the session calls
from the program (``sys.setprofile`` and ``threading.setprofile``): a
call counts only when the calling frame's code lies under
``src/repro``, ``benchmarks/`` or ``examples/``.  A caller in generated
code (file ``<string>``, such as a dataclass's ``__init__``) counts as
that frame's own caller.  A function only a test calls has no user.

A generator function run as a process is first resumed by the engine
(``Process._advance``), which says nothing of who wanted it run.  It
counts when the frame that created its process does: the caller of
``Process(...)``, followed up through every frame that only passed the
generator on as an argument (``Node.spawn``, ``TabsCluster.run_on``,
``spawn_handler``).  A generator a test builds and hands to
``cluster.run_on`` is the test's.

It lists every ``def`` under ``src/repro`` with ``ast`` and fails the
session on a function no program call reached, unless :data:`ALLOWED`
names it with a reason, and on an allowlisted function that a program
call reached, so the list cannot go stale.  It writes
``reachability.json`` (reached, called only from tests, never called,
the allowlist) to the directory pytest runs in.

A word count (``tests/obs/test_structure.py``) cannot see a method whose
name is a common word; a call can.  A function only a subprocess or a
pool worker runs is invisible here and belongs on the allowlist.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from inspect import CO_GENERATOR
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: the module whose ``Process.__init__`` names a process's creator, and
#: whose ``Process._advance`` resumes a generator on the engine's behalf
PROCESS = str(SRC / "sim" / "process.py")
#: a call from code under one of these counts; SRC comes first
PROGRAM = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: functions no program call reaches, by ``<path under src/repro>::<qualname>``
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
    "__main__.py::main":
        "an entry point: ``python -m repro`` calls it; tests call it "
        "with an argv",
    **{name: "a test oracle: tests read the program's state through it"
       for name in ("comm/failures.py::FailureDetector.suspects",
                    "kernel/node.py::Node.live_processes",
                    "locking/manager.py::LockManager.held_keys",
                    "obs/profile.py::SimProfiler.snapshot",
                    "perf/model.py::paper_predicted_time",
                    "perf/pathmodel.py::PathCounts.time",
                    "txn/manager.py::TransactionManager.phase_of")},
    **{name: "a paper or harness mechanism only tests drive"
       for name in ("chaos/workload.py::ChaosWorkload.schedule_archive_dumps",
                    "core/facility.py::TabsNode.fail_server",
                    "core/facility.py::TabsNode.recover_server_generator",
                    "core/facility.py::TabsNode.media_failure",
                    "kernel/disk.py::Disk.arm_misdirected_write",
                    "kernel/vm.py::VirtualMemory.unpin_all",
                    "nameserver/library.py::NameServerLibrary.deregister",
                    "reconfig/manager.py::ReconfigManager.retire",
                    "server/library.py::"
                    "DataServerLibrary.convert_object_id_to_va",
                    "servers/replicated_dir.py::ReplicatedDirectory.delete",
                    "workloads/harness.py::"
                    "SeededWorkload.crash_and_recover_all")},
    **{name: "called by frozen tabsbench (benchmarks/tabsbench), which "
             "the session does not run"
       for name in ("core/config.py::ReconfigConfig.off",
                    "kernel/costs.py::CostMeter.count",
                    "reconfig/epoch.py::PlacementEpoch.replicas",
                    "sim/engine.py::Engine.step",
                    "wal/codec.py::decode_record")},
    **{name: "read by a person (a failure message, a debugger), never by "
             "the program"
       for name in ("errors.py::LogMediaCorruption.__str__",
                    "errors.py::PageCorruption.__str__",
                    "errors.py::TransactionAborted.__str__",
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
        #: (file, first line) of every ``src/repro`` code object called,
        #: and of those a program call reached: a set of code objects
        #: would do, but equal code in two files compares equal
        self.called: set = set()
        self.reached: set = set()
        #: file name -> index into PROGRAM of the tree it lies in, or -1
        self.tree: dict[str, int] = {}
        self.never = self.only_tests = self.stale = self.unknown = []

    def _tree(self, filename: str) -> int:
        tree = self.tree.get(filename)
        if tree is None:
            path = Path(filename).resolve()
            tree = next((i for i, root in enumerate(PROGRAM)
                         if path.is_relative_to(root)), -1)
            self.tree[filename] = tree
        return tree

    def _spawned(self, frame) -> None:
        """``frame`` is a ``Process.__init__`` call: the generator it
        drives is reached when its creator is the program's."""
        generator = frame.f_locals.get("generator")
        code = getattr(generator, "gi_code", None)
        if code is None:
            return
        key = (code.co_filename, code.co_firstlineno)
        if key in self.reached or self._tree(code.co_filename) != 0:
            return
        self.called.add(key)
        creator = frame
        while creator is not None and _passes_on(creator, generator):
            creator = creator.f_back
        while creator is not None and creator.f_code.co_filename == "<string>":
            creator = creator.f_back
        if creator is not None and self._tree(creator.f_code.co_filename) >= 0:
            self.reached.add(key)

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == PROCESS and code.co_name == "__init__":
            self._spawned(frame)
        key = (code.co_filename, code.co_firstlineno)
        if key in self.reached or self._tree(code.co_filename) != 0:
            return
        self.called.add(key)
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == "<string>":
            caller = caller.f_back
        if caller is None or self._tree(caller.f_code.co_filename) < 0:
            return
        if (code.co_flags & CO_GENERATOR
                and caller.f_code.co_filename == PROCESS
                and caller.f_code.co_name == "_advance"):
            return  # the engine resuming a process: see _spawned
        self.reached.add(key)

    def start(self) -> None:
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def pytest_sessionfinish(self, session):
        sys.setprofile(None)
        threading.setprofile(None)
        names = definitions()

        def of(keys):
            keys = {(str(Path(name).resolve()), line) for name, line in keys}
            return {name for key, name in names.items() if key in keys}

        reached, called = of(self.reached), of(self.called)
        unreached = set(names.values()) - reached
        self.never = sorted(unreached - called - set(ALLOWED))
        self.only_tests = sorted(unreached & called - set(ALLOWED))
        self.stale = sorted(set(ALLOWED) & reached)
        self.unknown = sorted(set(ALLOWED) - set(names.values()))
        Path(REPORT).write_text(json.dumps({
            "reached": sorted(reached),
            "called_only_from_tests": sorted(unreached & called),
            "never_called": sorted(unreached - called),
            "allowed": ALLOWED,
        }, indent=1) + "\n")
        if self.never or self.only_tests or self.stale or self.unknown:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        write = terminalreporter.write_line
        for title, names in (
                ("never called: test it through the program's path, or "
                 "delete it", self.never),
                ("called only from tests: give it a caller in the program, "
                 "or delete it", self.only_tests),
                ("reached from the program, yet on the allowlist: take it "
                 "off", self.stale),
                ("on the allowlist, but not defined", self.unknown)):
            if names:
                terminalreporter.section(f"reachability -- {title}")
                for name in names:
                    write(name)


def _passes_on(frame, generator) -> bool:
    """Does ``frame`` hold ``generator`` as one of its arguments?"""
    code = frame.f_code
    names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    local = frame.f_locals
    return any(local.get(name) is generator for name in names)


_HOOK = Reachability()


def pytest_load_initial_conftests(early_config, parser, args):
    """Before the first conftest imports ``repro``: module-level calls
    count too."""
    _HOOK.start()


def pytest_configure(config):
    config.pluginmanager.register(_HOOK, "reachability-hook")
