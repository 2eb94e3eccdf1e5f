"""The one shard-copy loop, driven against a scripted application.

Replica catch-up and shard migration both run
:func:`repro.replication.catchup.copy_shard`; the end-to-end suites
reach its retry paths only when a fault happens to land inside a copy.
Here every path is walked on purpose: the fake application answers the
four maintenance operations from a script and fails where told to.
"""

from types import SimpleNamespace

import pytest

from repro.errors import CommunicationError, LockTimeout
from repro.reconfig.migration import COPY_MAX_RETRIES
from repro.replication.catchup import (
    CALL_TIMEOUT_MS,
    CATCHUP_MAX_RETRIES,
    CHUNK_CELLS,
    LOCK_TIMEOUT_MS,
    RETRY_MS,
    CopyExhausted,
    copy_shard,
)
from repro.replication.runtime import PREPARED_INQUIRY_MS
from repro.sim import Engine

#: what the scripted random source answers to ``uniform(0.5, 1.0)``
DRAW = 0.75


class ScriptedRandom:
    def __init__(self):
        self.asked = []

    def uniform(self, low, high):
        self.asked.append((low, high))
        return DRAW


class ScriptedApp:
    """An ``ApplicationLibrary`` stand-in: a source that has written
    ``cells`` offsets, each at version 1.0, and a destination that holds
    the versions ``held`` names (-1.0, nothing, elsewhere), leaves the
    ``prepared`` offsets out of its answer and applies whatever it is
    sent.  ``fail(op, node, body)`` may return an exception to raise from
    that call; ``refuse`` lists the ordinals of transactions whose
    commit is refused."""

    def __init__(self, cells=0, fail=None, refuse=(), held=None,
                 prepared=()):
        self.ctx = SimpleNamespace(engine=Engine(), random=ScriptedRandom(),
                                   tracer=None)
        self.offsets = list(range(0, 4 * cells, 4))
        self.fail = fail or (lambda op, node, body: None)
        self.refuse = set(refuse)
        self.held = held or {}
        self.prepared = set(prepared)
        self.began = 0
        #: (op, node, body, timeout_ms) of every operation, in order
        self.calls = []
        self.aborted = []

    def begin_transaction(self):
        yield from ()
        self.began += 1
        return self.began

    def lookup_one(self, name, node_name=""):
        yield from ()
        return (name, node_name)

    def call(self, ref, op, body, tid, timeout_ms=None):
        yield from ()
        _, node = ref
        self.calls.append((op, node, body, timeout_ms))
        error = self.fail(op, node, body)
        if error is not None:
            raise error
        if op == "repl_cells":
            return {"offsets": list(self.offsets)}
        if op == "repl_read_batch":
            return {"cells": {offset: ("v", 1.0, offset)
                              for offset in body["offsets"]}}
        if op == "repl_versions":
            return {"versions": {offset: self.held.get(offset, -1.0)
                                 for offset in body["offsets"]
                                 if offset not in self.prepared}}
        return {"applied": True}

    def end_transaction(self, tid):
        yield from ()
        return tid not in self.refuse

    def abort_transaction(self, tid, reason=""):
        yield from ()
        self.aborted.append((tid, reason))

    # -- what happened, by operation -------------------------------------

    def ops(self, op):
        return [call for call in self.calls if call[0] == op]

    def snapshots(self):
        """First cell number of each snapshot chunk asked of the source."""
        return [body["offsets"][0] // 4 for _, _, body, _
                in self.ops("repl_read_batch")]

    def applied(self):
        """Cell numbers applied at the destination, in order."""
        return [next(iter(body["cells"])) // 4 for _, _, body, _
                in self.ops("repl_apply_batch")]


def drive(generator):
    """Run a simulation generator with nobody else in the world; returns
    ``(its value, the delays it slept)``."""
    delays = []
    try:
        while True:
            delay = next(generator)
            assert isinstance(delay, float)  # a sleep, not an event
            delays.append(delay)
    except StopIteration as stop:
        return stop.value, delays


def copy(app, *, ready=lambda: True, max_retries=CATCHUP_MAX_RETRIES, **more):
    return drive(copy_shard(app, "accounts0", "bank1", "bank0", ready,
                            max_retries, **more))


def failing(op, times, error=LockTimeout, when=lambda node, body: True):
    """A ``fail`` script: the first ``times`` matching calls raise."""
    left = [times]

    def fail(called_op, node, body):
        if called_op == op and when(node, body) and left[0]:
            left[0] -= 1
            return error("scripted")
        return None
    return fail


def chunk(number):
    return lambda node, body: body["offsets"][0] == number * CHUNK_CELLS * 4


def test_copies_every_written_cell_chunk_by_chunk():
    cells = 2 * CHUNK_CELLS + 6
    app = ScriptedApp(cells)
    pages, delays = copy(app)
    assert delays == []
    assert len(app.ops("repl_cells")) == 1
    assert app.snapshots() == [0, CHUNK_CELLS, 2 * CHUNK_CELLS]
    assert app.applied() == list(range(cells))
    assert pages == 3  # 70 four-byte cells: one distinct page per chunk
    assert app.aborted == []


def test_a_failed_chunk_resumes_from_that_chunk_not_the_listing():
    cells = 2 * CHUNK_CELLS + 6
    app = ScriptedApp(cells, fail=failing("repl_read_batch", 1,
                                          when=chunk(1)))
    _, delays = copy(app)
    assert len(app.ops("repl_cells")) == 1
    assert app.snapshots() == [0, CHUNK_CELLS, CHUNK_CELLS,
                               2 * CHUNK_CELLS]
    assert app.applied() == list(range(cells))
    assert delays == [DRAW * RETRY_MS * 1]
    # the failed snapshot's own transaction was aborted, nothing else:
    # the listing, chunk 0's snapshot, version read and applies came first
    assert [tid for tid, _ in app.aborted] == [4 + CHUNK_CELLS]


def test_a_failed_apply_takes_its_chunk_again_from_the_snapshot():
    """Cells already merged are applied again here; at a real server the
    chunk's fresh version read would leave them out."""
    cell = CHUNK_CELLS + 5
    app = ScriptedApp(2 * CHUNK_CELLS, fail=failing(
        "repl_apply_batch", 1, when=lambda node, body: cell * 4
        in body["cells"]))
    copy(app)
    assert app.snapshots() == [0, CHUNK_CELLS, CHUNK_CELLS]
    assert app.applied() == (list(range(cell + 1))
                             + list(range(CHUNK_CELLS, 2 * CHUNK_CELLS)))


def test_a_completed_chunk_resets_the_attempt_counter():
    """Four failures against a budget of three: never three in a row."""
    failures = {0: 2, 1: 2}

    def fail(op, node, body):
        if op == "repl_read_batch":
            number = body["offsets"][0] // (CHUNK_CELLS * 4)
            if failures[number]:
                failures[number] -= 1
                return LockTimeout("scripted")
        return None

    app = ScriptedApp(2 * CHUNK_CELLS, fail=fail)
    _, delays = copy(app, max_retries=3)
    assert app.applied() == list(range(2 * CHUNK_CELLS))
    assert delays == [DRAW * RETRY_MS * attempt for attempt in (1, 2, 1, 2)]


def test_max_retries_failures_in_a_row_exhaust_the_copy():
    """``ready()`` saying no is a failure like any other."""
    answers = iter([False, True, True])
    app = ScriptedApp(CHUNK_CELLS, fail=failing("repl_read_batch", 99))
    with pytest.raises(CopyExhausted):
        copy(app, ready=lambda: next(answers), max_retries=3)
    assert len(app.ops("repl_cells")) == 1
    assert len(app.ops("repl_read_batch")) == 2
    assert app.applied() == []


def test_backoff_is_a_jittered_multiple_of_the_attempt():
    app = ScriptedApp(CHUNK_CELLS, fail=failing("repl_cells", 3,
                                                CommunicationError))
    _, delays = copy(app)
    assert app.ctx.random.asked == [(0.5, 1.0)] * 3
    assert delays == [DRAW * RETRY_MS * attempt for attempt in (1, 2, 3)]


def test_a_second_pass_lists_the_source_again():
    app = ScriptedApp(CHUNK_CELLS + 1)
    seen = []
    copy(app, passes=2, on_chunk=seen.append)
    assert [node for _, node, _, _ in app.ops("repl_cells")] \
        == ["bank1", "bank1"]
    assert app.snapshots() == [0, CHUNK_CELLS, 0, CHUNK_CELLS]
    assert seen == [1, 2, 3, 4]  # chunks so far, across both passes


def test_a_failing_probe_burns_a_retry_and_copies_nothing_again():
    app = ScriptedApp(CHUNK_CELLS, fail=failing(
        "repl_cells", 1, CommunicationError,
        when=lambda node, body: node == "bank0"))
    _, delays = copy(app, probe=True)
    assert [node for _, node, _, _ in app.ops("repl_cells")] \
        == ["bank1", "bank0", "bank0"]
    assert app.snapshots() == [0]
    assert app.applied() == list(range(CHUNK_CELLS))
    assert delays == [DRAW * RETRY_MS * 1]


def test_an_empty_key_space_still_probes_its_destination():
    app = ScriptedApp(0, fail=failing(
        "repl_cells", 99, CommunicationError,
        when=lambda node, body: node == "bank0"))
    with pytest.raises(CopyExhausted):
        copy(app, max_retries=COPY_MAX_RETRIES, passes=2, probe=True)
    assert len(app.ops("repl_cells")) == 1 + COPY_MAX_RETRIES


def test_calls_to_the_source_are_bounded_and_the_apply_is_not():
    app = ScriptedApp(1)
    copy(app, probe=True)
    listing, snapshot, versions, apply, probe = app.calls
    assert listing == ("repl_cells", "bank1", {}, CALL_TIMEOUT_MS)
    assert snapshot == ("repl_read_batch", "bank1",
                        {"offsets": [0], "lock_timeout_ms": LOCK_TIMEOUT_MS},
                        CALL_TIMEOUT_MS)
    assert versions == ("repl_versions", "bank0", {"offsets": [0]},
                        CALL_TIMEOUT_MS)
    assert apply == ("repl_apply_batch", "bank0",
                     {"cells": {0: ("v", 1.0, 0)}}, None)
    assert probe == ("repl_cells", "bank0", {}, CALL_TIMEOUT_MS)


def test_a_cell_held_at_the_snapshots_version_or_newer_gets_no_apply():
    """Cell 0 is held at the snapshot's version, cell 1 at a newer one,
    cell 2 at an older one and cell 3 not at all."""
    app = ScriptedApp(4, held={0: 1.0, 4: 2.0, 8: 0.5})
    pages, _ = copy(app)
    assert len(app.ops("repl_versions")) == 1
    assert app.applied() == [2, 3]
    assert pages == 1


def test_a_cell_left_out_of_the_version_answer_is_applied():
    """The destination leaves out a cell whose holder is prepared; the
    apply's own version test, under its lock, decides that one."""
    app = ScriptedApp(2, held={0: 1.0, 4: 1.0}, prepared={4})
    copy(app)
    assert app.applied() == [1]


def test_a_failed_version_read_retries_its_chunk_like_a_failed_snapshot():
    cells = 2 * CHUNK_CELLS
    app = ScriptedApp(cells, fail=failing("repl_versions", 1,
                                          CommunicationError, when=chunk(1)))
    _, delays = copy(app)
    assert app.snapshots() == [0, CHUNK_CELLS, CHUNK_CELLS]
    assert {(node, timeout_ms) for _, node, _, timeout_ms
            in app.ops("repl_versions")} == {("bank0", CALL_TIMEOUT_MS)}
    assert app.applied() == list(range(cells))
    assert delays == [DRAW * RETRY_MS * 1]
    # chunk 1's snapshot committed; its version read was aborted
    assert [tid for tid, _ in app.aborted] == [5 + CHUNK_CELLS]


def test_a_refused_commit_is_a_retryable_failure():
    """``run_transaction`` reports it as ``TransactionAborted``; there is
    nothing left to abort."""
    app = ScriptedApp(1, refuse={2})  # the snapshot's first transaction
    _, delays = copy(app)
    assert app.snapshots() == [0, 0]
    assert app.aborted == []
    assert len(delays) == 1


def test_a_defect_is_not_retried():
    """Anything outside the retryable set propagates -- after aborting
    the maintenance transaction it happened in."""
    app = ScriptedApp(1, fail=failing("repl_read_batch", 1, RuntimeError))
    with pytest.raises(RuntimeError):
        copy(app)
    assert app.aborted == [(2, "RuntimeError('scripted')")]


def test_the_constants_keep_the_values_of_the_fields_they_replaced():
    assert (CHUNK_CELLS, RETRY_MS, LOCK_TIMEOUT_MS, CALL_TIMEOUT_MS,
            CATCHUP_MAX_RETRIES, COPY_MAX_RETRIES, PREPARED_INQUIRY_MS) \
        == (32, 400.0, 1_500.0, 6_000.0, 8, 6, 5_000.0)
