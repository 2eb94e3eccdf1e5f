"""Structural guards: the plumbing the service kit owns stays in the kit,
and no module imports a name it does not use.

Text checks over ``src/repro``; a new match fails with the file and line,
and the fix is to use the kit (or, with a reason, to add the site below).
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: where ``tracer.begin(`` may appear
SPAN_BEGIN_HOMES = {
    "obs/tracer.py": "the tracer itself, and Tracer.span -- the one scope "
                     "every other module reaches through ctx.span()",
}

#: where a reply port may be constructed, by enclosing function
REPLY_PORT_HOMES = {
    ("kernel/service.py", "request"):
        "the kit: local request/reply",
    ("rpc/stubs.py", "_call_once"):
        "remote call: the receive races a time-out, and the port is "
        "destroyed so a late reply is dropped",
    ("txn/manager.py", "_call_server"):
        "retry loop against a data-server port that recovery may rebind "
        "between attempts",
}


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


def test_reply_ports_are_built_only_by_the_kit_and_its_named_exceptions():
    found = {(path, function)
             for path, function, _ in sites(r"reply_port = Port\(")}
    assert found == set(REPLY_PORT_HOMES)
    # Any other bare Port(...) is a component's own request port.
    others = {(path, function)
              for path, function, _ in sites(r"\bPort\(")} - found
    assert others == {("kernel/node.py", "create_port")}


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
