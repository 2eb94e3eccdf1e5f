"""Structural guards: the plumbing the service kit owns stays in the kit,
no module imports a name it does not use or another module's private
name, and nothing is defined that nothing refers to.

Text checks over ``src/repro``; a new match fails with the file and line,
and the fix is to use the kit (or, with a reason, to add the site below).
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: where a reference to a definition under ``src/repro`` may live
REFERENCE_TREES = ("src", "tests", "benchmarks", "examples", "docs")

#: definitions reached by building their name, never by spelling it:
#: dunders, data-server operations (``op_<name>``), service-kit handlers
#: (``_handle_<op>``) and kernel system calls (``_sys_<name>``)
DISPATCHED_BY_NAME = re.compile(r"__\w+__|op_\w+|_handle_\w+|_sys_\w+")

#: where ``tracer.begin(`` may appear
SPAN_BEGIN_HOMES = {
    "obs/tracer.py": "the tracer itself, and Tracer.span -- the one scope "
                     "every other module reaches through ctx.span()",
}

#: where a span's parent may be named (``trace_parent=`` or
#: ``parent_id=``): the kit stamps and adopts the running process's
#: context, the tracer applies the parent rule; nowhere else picks one
SPAN_PARENT_HOMES = ("kernel/messages.py", "kernel/ports.py",
                     "kernel/service.py", "obs/")

#: where a reply port may be constructed, by enclosing function
REPLY_PORT_HOMES = {
    ("kernel/service.py", "post"):
        "the kit: every request/reply -- local, remote (rpc) and the "
        "Transaction Manager's scatter/gather",
}

#: what a reply body's error is read by: the kit's unmarshal
REPLY_ERROR_READ = (r"""["']error["']\s+in\b|\.get\(["']error["']"""
                    r"""|\[["']error["']\](?!\s*=(?!=))""")

#: managers that only serve their port and make local requests: the kit
#: is all of the message plumbing they need
NO_RPC_IMPORTERS = ("txn/manager.py", "recovery/manager.py")


def sites(pattern: str):
    """(relative path, enclosing def, line number) of each match."""
    regex = re.compile(pattern)
    for path in sorted(SRC.rglob("*.py")):
        enclosing = ""
        for number, line in enumerate(path.read_text().splitlines(), 1):
            found = re.match(r"\s*def (\w+)", line)
            if found:
                enclosing = found.group(1)
            if regex.search(line):
                yield path.relative_to(SRC).as_posix(), enclosing, number


def test_spans_are_begun_only_by_the_tracer_and_its_scope():
    strays = [f"{path}:{line}" for path, _, line in sites(r"tracer\.begin\(")
              if path not in SPAN_BEGIN_HOMES]
    assert strays == [], "open spans with ctx.span(...), not tracer.begin"


def test_span_parents_are_named_only_by_the_kit_and_the_tracer():
    strays = [f"{path}:{line}" for path, _, line
              in sites(r"\b(trace_parent|parent_id)\s*=(?!=)")
              if not path.startswith(SPAN_PARENT_HOMES)]
    assert strays == [], ("a span's parent is the running process's "
                          "context (docs/OBSERVABILITY.md): do not pick one")


def test_reply_ports_are_built_only_by_the_kit_and_its_named_exceptions():
    found = {(path, function)
             for path, function, _ in sites(r"reply_port = Port\(")}
    assert found == set(REPLY_PORT_HOMES)
    # Any other bare Port(...) is a component's own request port.
    others = {(path, function)
              for path, function, _ in sites(r"\bPort\(")} - found
    assert others == {("kernel/node.py", "create_port")}


def test_the_reply_format_lives_only_in_the_kit():
    """``respond`` / ``respond_error`` are defined once, in the kit, and
    nobody imports them from the RPC layer; only the kit's ``unmarshal``
    reads an error out of a reply body."""
    defined = [path for path, _, _ in sites(r"^def respond(_error)?\(")]
    assert defined == ["kernel/service.py"] * 2
    via_rpc = [f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
               for tree in REFERENCE_TREES if tree != "docs"
               for path in sorted((ROOT / tree).rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and node.module == "repro.rpc.stubs"
               and {"respond", "respond_error"} & {
                   alias.name for alias in node.names}]
    assert via_rpc == []
    readers = {(path, function)
               for path, function, _ in sites(REPLY_ERROR_READ)}
    assert readers == {("kernel/service.py", "unmarshal")}


def test_a_message_kind_is_the_only_cost_knob():
    """No ``charged`` / ``free_reply`` beside ``MessageKind``."""
    from repro.kernel.messages import Message
    from repro.kernel.ports import Port
    from repro.kernel.service import post, request
    strays = [f"{path}:{line}"
              for path, _, line in sites(r"\bcharged\s*=|\bfree_reply\b")]
    assert strays == []
    assert list(inspect.signature(Port.send).parameters) == \
        ["self", "message"]
    for kit in (post, request):
        assert not {"charged", "free_reply"} & set(
            inspect.signature(kit).parameters)
    assert "free_reply" not in Message.__dataclass_fields__


def test_one_abort_mark_and_no_zombie_guard():
    """An abort that has begun, or a family a peer failure doomed, is
    recorded in one place, the node's abort mark, and one helper adds to
    it.  The mark, with its reason, answers for an aborted fragment: the
    Transaction Manager keeps no tombstone, and one walk lists a
    family's members.  None of the per-component guards, per-fragment
    flags or second merge paths the mark replaced is back."""
    guards = [f"{path}:{line}" for path, _, line in sites(
        r"_refuse_zombie|_aborted_tombstones|_aborted_tids|_undone_values"
        r"|\.aborting\b|\bzombie=|\babort_told\b|_tell_untold_children"
        r"|\baborted_by_failure\b|\babort_on_prepare\b|\bis_root\b"
        r"|\bkeep_tombstone\b|_merge_child_into_parent|_merge_family_into"
        r"|_handle_query_status|tm\.query_status|\babort_reason\b")]
    assert guards == []
    marks = [(path, function) for path, function, _ in sites(
        r"\b(node|self)\.aborted(\[[^]]*\]\s*=(?!=)"
        r"|\.(add|update|setdefault)\(|\s*\|=)")
        if path != "recovery/analysis.py"]  # RecoveryPlan.aborted
    assert marks == [("txn/manager.py", "_mark")]
    from repro.txn.manager import TransactionManager
    from repro.txn.status import TransactionState
    fields = TransactionState.__dataclass_fields__
    assert not {"read_only", "abort_told", "aborted_by_failure",
                "abort_on_prepare", "children", "abort_reason"} & set(fields)
    tm = TransactionManager.__init__.__code__.co_names
    assert not {"aborts", "commits"} & set(tm)
    scans = [(path, function) for path, function, _ in sites(
        r"is_ancestor_of\(|key=_deepest_first|\.toplevel ==")
        if path == "txn/manager.py"]
    assert scans == [("txn/manager.py", "_members")] * 2
    assert not [name for name, spec in fields.items()
                if spec.type in ("bool", bool) and name != "has_remote_sites"]


def protocol_table() -> dict[str, dict[str, str]]:
    """docs/PROTOCOL.md's fragment table: message -> row -> the method
    its cell names; a ``--`` cell is left out."""
    lines = (ROOT / "docs" / "PROTOCOL.md").read_text().splitlines()
    start = next(number for number, line in enumerate(lines)
                 if line.startswith("| row \\ message |"))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    table: dict[str, dict[str, str]] = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        row, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert len(cells) == len(header) - 1, f"ragged row {row!r}"
        for column, cell in zip(header[1:], cells):
            named = re.match(r"`(_\w+)`", cell)
            assert named or cell.startswith("--"), f"{row} x {column}"
            for op in re.findall(r"`(tm\.\w+)`", column):
                if named:
                    table.setdefault(op, {})[row] = named.group(1)
                else:
                    table.setdefault(op, {})
    return table


def test_the_transaction_managers_dispatch_is_docs_protocol_table():
    """Each cell of docs/PROTOCOL.md's table names the method the
    Transaction Manager's ``TABLE`` runs for that row and message, or is
    ``--`` where ``TABLE`` has no cell; the rows are the ones its row
    lookup returns, and each column's handler is the dispatch."""
    from repro.txn import manager
    from repro.txn.manager import TABLE, TransactionManager

    assert protocol_table() == TABLE
    rows = {manager.NO_STATE, manager.MARKED, manager.WALK, manager.ACTIVE,
            manager.PREPARING, manager.PREPARED, manager.COMMITTED}
    for op, cells in TABLE.items():
        assert set(cells) <= rows, op
        for action in cells.values():
            assert callable(getattr(TransactionManager, action)), action
        handler = getattr(TransactionManager, "_handle_" + op[3:])
        assert handler in (TransactionManager._dispatch,
                           TransactionManager._dispatch_now,
                           TransactionManager._abort_members), op
    assert manager.MARK_FIRST < set(TABLE)


def test_one_way_to_finish_a_commit():
    """The root and a prepared subordinate finish a decided commit the
    same way: one helper forces the COMMITTED record, and one runs
    phase two's commit (docs/PROTOCOL.md "Commit: distributed")."""
    callers: dict[str, list[str]] = {"_phase_two": [],
                                     "append_status_via_message": []}
    for path in sorted(SRC.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for call in ast.walk(function):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in callers
                        and any(isinstance(arg, ast.Constant)
                                and arg.value in ("commit", "committed")
                                for arg in call.args)):
                    callers[call.func.attr].append(function.name)
    assert callers == {"_phase_two": ["_finish_phase_two"],
                       "append_status_via_message": ["_commit_point"]}


def test_a_wait_with_one_waiter_builds_no_event():
    """A sleep yields its delay and a reply, lock, vote, lookup or
    keyboard wait parks its process (docs/SIMULATOR.md "A wait with one
    waiter needs no event"): no ``Timeout`` is yielded and no race is
    built, and the interrupt that could cut a wait short stays gone."""
    found = [f"{path}:{line}" for path, _, line in sites(
        r"yield Timeout\(|\bAnyOf\b|\bAllOf\b|\b_Condition\b"
        r"|\.interrupt\(|\bInterrupt\b|_cpu_labels")]
    assert found == []
    timeouts = {path for path, _, _ in sites(r"\bTimeout\(")}
    assert timeouts == {"sim/events.py"}


def test_the_due_next_rule_lives_in_the_engine():
    """A wake-up due next runs in the entry that caused it
    (docs/SIMULATOR.md): ``Engine.run_due_next`` is the one place that
    decides it, each wake-up that follows the rule calls it, and no
    other module reads the engine's queue or clock or moves its running
    key."""
    from repro.kernel.service import Service
    from repro.sim import Event, Process
    strays = [f"{path}:{line}" for path, _, line in sites(
        r"\._heap\b|\._now\b|engine\._seq\s*=(?!=)")
        if path != "sim/engine.py"]
    assert strays == []
    rule = [(path, function) for path, function, _
            in sites(r"heap\[0\]\[0\] <= ")]
    assert rule == [("sim/engine.py", "run_due_next")]
    for wake_up in (Event.succeed_last, Process.wake_last, Process._expire,
                    Process._slept, Service.deliver):
        assert ".run_due_next(" in inspect.getsource(wake_up), wake_up


def test_a_log_trigger_is_an_observer_not_a_poller():
    """``CrashWhenLogged`` fires from the log stores' durable-record
    observers (docs/CHAOS.md "Triggered actions"): the chaos controller
    starts no process and reads no log to decide a trigger -- only
    ``_log_rot`` reads one, to pick a record to rot -- and the action
    carries no polling or arming knob."""
    from repro.chaos import CrashWhenLogged
    readers = [(path, function) for path, function, _
               in sites(r"read_forward") if path == "chaos/controller.py"]
    processes = [f"{path}:{line}" for path, _, line in sites(r"\bProcess\(")
                 if path == "chaos/controller.py"]
    assert processes == []
    assert readers == [("chaos/controller.py", "_log_rot")]
    assert list(CrashWhenLogged.__dataclass_fields__) == [
        "crash_node", "seen", "not_seen", "restart_after_ms"]


def test_managers_that_only_answer_do_not_import_the_rpc_layer():
    importers = []
    for relative in NO_RPC_IMPORTERS:
        tree = ast.parse((SRC / relative).read_text())
        importers += [
            f"{relative}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[:2] == ["repro", "rpc"]
            or isinstance(node, ast.Import) and any(
                alias.name.split(".")[:2] == ["repro", "rpc"]
                for alias in node.names)]
    assert importers == []


def test_every_imported_name_is_used():
    """The unused-import half of ``ruff`` F401, for where ruff is not
    installed: outside ``__init__.py`` (re-exports), a name an ``import``
    binds must occur as a word elsewhere in the file -- in code, in a
    quoted annotation or in ``__all__``."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        bound = []
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound += [(alias.asname or alias.name.partition(".")[0],
                       node.lineno) for alias in node.names]
            for number in range(node.lineno, node.end_lineno + 1):
                lines[number - 1] = ""
        rest = "\n".join(lines)
        unused += [f"{path.relative_to(SRC).as_posix()}:{line} {name}"
                   for name, line in bound
                   if not re.search(rf"\b{re.escape(name)}\b", rest)]
    assert unused == []


def test_every_definition_is_referenced():
    """A function or class defined under ``src/repro`` is spelled
    somewhere besides its own ``def`` / ``class`` line: in code, a test,
    a benchmark, an example or a doc.  Word counts, so a method defined
    in three classes needs a fourth mention."""
    mentions: Counter = Counter()
    for tree in REFERENCE_TREES:
        for path in (ROOT / tree).rglob("*"):
            if path.suffix in (".py", ".md") and path.is_file():
                mentions.update(re.findall(r"\w+", path.read_text()))
    defined: Counter = Counter()
    first_seen = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] += 1
                first_seen.setdefault(
                    node.name,
                    f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    dead = sorted(f"{first_seen[name]} {name}"
                  for name, count in defined.items()
                  if not DISPATCHED_BY_NAME.fullmatch(name)
                  and mentions[name] <= count)
    assert dead == [], "defined but never referenced: delete it"


def test_no_module_imports_another_modules_private_name():
    """An underscore-prefixed name is its module's own business; a
    second module that needs it means it should lose the underscore."""
    private = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private += [
                    f"{path.relative_to(SRC).as_posix()}:{node.lineno} "
                    f"{node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")]
    assert private == []
