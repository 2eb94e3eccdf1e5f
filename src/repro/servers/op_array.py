"""An integer array server built on *operation logging*.

The paper's Conclusions call for operation logging and promise an
empirical comparison of value and operation logging; this server is that
comparison's second arm (see ``benchmarks/bench_ablations.py``).  Where
the value-logged integer array spools an old/new value pair per update,
this server spools an operation record naming the update and its inverse:

- ``add_cell(cell, delta)`` -- undone by ``add_cell(cell, -delta)``.  The
  record carries only the operation name and arguments, so it is smaller
  than a value record and permits more concurrency in principle.
- ``fill_range(start, count, value)`` -- a *multi-page* operation captured
  in **one** log record, which value logging cannot do ("operations on
  multi-page objects can be recorded in one log record", Section 2.1.3).
  Its inverse restores the previous contents, which the forward operation
  stashes in the record's undo arguments.

Recovery uses the three-pass operation algorithm: the redo decision
compares each covered page's sector-header sequence number with the
record's LSN.
"""

from __future__ import annotations

from repro.errors import ServerError
from repro.kernel.disk import PAGE_SIZE
from repro.locking.modes import READ, WRITE
from repro.servers.base import BaseDataServer
from repro.txn.ids import TransactionID

WORD_SIZE = 4


class OperationArrayServer(BaseDataServer):
    """get_cell / add_cell / fill_range with transition logging."""

    TYPE_NAME = "operation_array"
    SEGMENT_PAGES = 256

    @property
    def max_cell(self) -> int:
        return self.SEGMENT_PAGES * (PAGE_SIZE // WORD_SIZE)

    def configure(self) -> None:
        self.library.register_recovery_operation("add_cell",
                                                 self._apply_add)
        self.library.register_recovery_operation("restore_range",
                                                 self._apply_restore_range)
        self.library.register_recovery_operation("fill_range",
                                                 self._apply_fill_range)

    # -- layout -----------------------------------------------------------------

    def _cell_oid(self, cell: int):
        if not 1 <= cell <= self.max_cell:
            raise ServerError(f"cell {cell} outside 1..{self.max_cell}")
        return self.library.create_object_id(
            self.base_va + (cell - 1) * WORD_SIZE, WORD_SIZE)

    def _range_oid(self, start: int, count: int):
        """One object id covering the whole (possibly multi-page) range."""
        if count < 1 or start < 1 or start + count - 1 > self.max_cell:
            raise ServerError(f"bad range [{start}, {start + count})")
        return self.library.create_object_id(
            self.base_va + (start - 1) * WORD_SIZE, count * WORD_SIZE)

    # -- recovery appliers (run without locking or logging) ------------------------

    def _apply_add(self, args):
        cell, delta = args
        yield from self.node.vm.add_to_object(self._cell_oid(cell), delta)

    def _apply_fill_range(self, args):
        start, count, value = args
        for cell in range(start, start + count):
            yield from self.node.vm.write_object(self._cell_oid(cell), value)

    def _apply_restore_range(self, args):
        start, old_values = args
        for offset, old in enumerate(old_values):
            yield from self.node.vm.write_object(
                self._cell_oid(start + offset), old)

    # -- operations -------------------------------------------------------------------

    def op_get_cell(self, body: dict, tid: TransactionID):
        oid = self._cell_oid(body["cell"])
        yield from self.library.lock_object(tid, oid, READ)
        value = yield from self.library.read_object(oid)
        return {"value": int(value or 0)}

    def op_add_cell(self, body: dict, tid: TransactionID):
        """Increment a cell; logged as a transition, not as values."""
        cell, delta = int(body["cell"]), int(body["delta"])
        oid = self._cell_oid(cell)
        lib = self.library
        yield from lib.lock_object(tid, oid, WRITE)
        yield from lib.pin_object(oid)
        try:
            value = yield from lib.add_to_object(oid, delta)
            yield from lib.log_operation(
                tid, "add_cell", (cell, delta), "add_cell", (cell, -delta),
                (oid,))
        finally:
            lib.unpin_object(oid)
        return {"value": value}

    def op_fill_range(self, body: dict, tid: TransactionID):
        """Set ``count`` cells from ``start``: one record, many pages."""
        start, count = int(body["start"]), int(body["count"])
        value = int(body["value"])
        range_oid = self._range_oid(start, count)
        lib = self.library
        yield from lib.lock_object(tid, ("range", self.name), WRITE)
        yield from lib.pin_object(range_oid)
        try:
            old_values = []
            for cell in range(start, start + count):
                old = yield from lib.read_object(self._cell_oid(cell))
                old_values.append(int(old or 0))
            for cell in range(start, start + count):
                yield from self.node.vm.write_object(self._cell_oid(cell),
                                                     value)
            yield from lib.log_operation(
                tid, "fill_range", (start, count, value),
                "restore_range", (start, tuple(old_values)), (range_oid,))
        finally:
            lib.unpin_object(range_oid)
        return {"filled": count}
