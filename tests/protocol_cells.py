"""Which cells of docs/PROTOCOL.md's table a run reaches.

A test-side wrapper on the Transaction Manager's one row lookup
(:meth:`~repro.txn.manager.TransactionManager.row`): every message of a
table column looks up its tid's row exactly once, so counting lookups
per (row, column) counts the cells the run took.
"""

from collections import Counter
from contextlib import contextmanager

from repro.txn.manager import TABLE, TransactionManager


@contextmanager
def cells_reached():
    """Count, while the block runs, each (row, column) cell of the table
    a message reached (``tm.abort`` shares ``tm.abort_req``'s column)."""
    reached: Counter = Counter()
    lookup = TransactionManager.row

    def recording(self, tid, column):
        row, state = lookup(self, tid, column)
        if column in TABLE:
            reached[row, "tm.abort_req" if column == "tm.abort"
                    else column] += 1
        return row, state

    TransactionManager.row = recording
    try:
        yield reached
    finally:
        TransactionManager.row = lookup
