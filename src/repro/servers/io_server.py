"""The input/output server (Section 4.3).

The I/O server extends the domain of TABS to the bitmap display: it
restores the screen after a failure and gives the user a comfortable model
of transaction-based input/output.  Output is displayed as it occurs, in a
style that indicates the state of the transaction that performed it:

- **in progress** -- grey;
- **committed** -- redrawn in black ("the operation really occurred");
- **aborted** -- lines are drawn through the output (preferable to making
  it disappear, which is disconcerting).

Mechanics, exactly as in the paper:

- The server maintains permanent, *non-failure-atomic* character data for
  each area: every write runs inside a fresh top-level transaction via
  ``ExecuteTransaction``, so a later client abort does not erase it.
- When a client transaction establishes ownership of an area, the server
  uses ``ExecuteTransaction`` to write ``aborted`` into a *state object*,
  then has the client transaction lock the state object and set it to
  ``committed`` -- putting an aborted/committed old/new pair in the log
  under the client transaction.
- The transaction's current status is then decidable without unbounded
  log data: state object locked -> in progress; unlocked and ``committed``
  -> committed; unlocked and ``aborted`` (the recovery mechanisms reset
  it) -> aborted.

User input is read from a per-area keyboard buffer and echoed inside a
rectangle (rendered here as ``[input]``).
"""

from __future__ import annotations

import collections

from repro.errors import ServerError
from repro.kernel.disk import PAGE_SIZE
from repro.locking.modes import WRITE
from repro.servers.base import BaseDataServer
from repro.sim import PARKED, Process
from repro.txn.ids import TransactionID

#: per-area layout, one page per area:
#:   [0]   line count (permanent, non-failure-atomic)
#:   [8+k] state slot k (ownership session states)
#:   lines live on the pages after the area header page
STATE_SLOTS_PER_AREA = 24
LINES_PER_AREA = 40
PAGES_PER_AREA = 1 + (LINES_PER_AREA * 8) // PAGE_SIZE + 1

IN_PROGRESS = "in_progress"
COMMITTED = "committed"
ABORTED = "aborted"


class IOServer(BaseDataServer):
    """Transactional terminal areas with the grey/black/struck model."""

    TYPE_NAME = "io_server"
    SEGMENT_PAGES = 64
    MAX_AREAS = 8

    def __init__(self, tabs_node, name: str):
        super().__init__(tabs_node, name)
        #: volatile: which client transaction owns each area right now
        self._owners: dict[int, tuple[TransactionID, int]] = {}
        #: volatile keyboard buffers and the waiters blocked on them
        self._keyboard: dict[int, collections.deque] = {}
        self._readers: dict[int, collections.deque] = {}
        self._next_area = 0
        self._next_state_slot: dict[int, int] = {}

    # -- layout --------------------------------------------------------------

    def _area_base(self, area: int) -> int:
        if not 0 <= area < self.MAX_AREAS:
            raise ServerError(f"bad I/O area id {area}")
        return self.base_va + area * PAGES_PER_AREA * PAGE_SIZE

    def _count_oid(self, area: int):
        return self.library.create_object_id(self._area_base(area), 8)

    def _state_oid(self, area: int, slot: int):
        return self.library.create_object_id(
            self._area_base(area) + 8 + slot * 8, 8)

    def _line_oid(self, area: int, line: int):
        offset = PAGE_SIZE + line * 8
        return self.library.create_object_id(self._area_base(area) + offset,
                                             8)

    # -- permanent, non-failure-atomic writes (ExecuteTransaction) -------------

    def _system_write(self, oid, value):
        """Write ``oid`` inside a fresh top-level transaction."""
        def body(tid):
            yield from self.library.lock_object(tid, ("sys", oid), WRITE)
            yield from self.library.pin_and_buffer(tid, oid)
            yield from self.library.write_object(oid, value)
            yield from self.library.log_and_unpin(tid, oid)
            return None
        yield from self.library.execute_transaction(body)

    # -- ownership / status ------------------------------------------------------

    def _ensure_ownership(self, area: int, tid: TransactionID):
        """First output by this transaction in this area: set up the state
        object whose lock + value encodes the transaction's status."""
        owner = self._owners.get(area)
        if owner is not None and owner[0] == tid:
            return owner[1]
        slot = self._next_state_slot.get(area, 0)
        if slot >= STATE_SLOTS_PER_AREA:
            raise ServerError(f"area {area}: out of ownership state slots")
        self._next_state_slot[area] = slot + 1
        state = self._state_oid(area, slot)
        # Step 1: a separate top-level transaction durably writes "aborted".
        yield from self._system_write(state, ABORTED)
        # Step 2: the *client* transaction locks the state object and sets
        # it to "committed" -- the old/new pair aborted/committed now sits
        # in the log under the client transaction.
        yield from self.library.lock_object(tid, state, WRITE)
        yield from self.library.pin_and_buffer(tid, state)
        yield from self.library.write_object(state, COMMITTED)
        yield from self.library.log_and_unpin(tid, state)
        self._owners[area] = (tid, slot)
        return slot

    def _status_of_slot(self, area: int, slot: int):
        """The grey/black/struck decision, via IsObjectLocked."""
        state = self._state_oid(area, slot)
        if self.library.is_object_locked(state):
            return IN_PROGRESS
        value = yield from self.library.read_object(state)
        return COMMITTED if value == COMMITTED else ABORTED

    # -- operations ------------------------------------------------------------------

    def op_obtain_io_area(self, body: dict, tid: TransactionID):
        del body, tid
        if self._next_area >= self.MAX_AREAS:
            raise ServerError("no free I/O areas")
        area = self._next_area
        self._next_area += 1
        yield from self._system_write(self._count_oid(area), 0)
        return {"area": area}

    def op_destroy_io_area(self, body: dict, tid: TransactionID):
        del tid
        area = int(body["area"])
        self._owners.pop(area, None)
        yield from self._system_write(self._count_oid(area), 0)
        return {}

    def _append_line(self, area: int, slot: int, text: str, boxed: bool):
        count_oid = self._count_oid(area)
        count = yield from self.library.read_object(count_oid)
        count = int(count or 0)
        if count >= LINES_PER_AREA:
            raise ServerError(f"area {area} is full")
        # Both the line and the count are permanent but not failure atomic.
        yield from self._system_write(self._line_oid(area, count),
                                      (text, slot, boxed))
        yield from self._system_write(count_oid, count + 1)

    def op_write_to_area(self, body: dict, tid: TransactionID):
        """WriteToArea / WritelnToArea: display now, in grey."""
        area = int(body["area"])
        slot = yield from self._ensure_ownership(area, tid)
        yield from self._append_line(area, slot, str(body["data"]),
                                     boxed=False)
        return {}

    op_writeln_to_area = op_write_to_area

    def op_feed_input(self, body: dict, tid: TransactionID):
        """Simulated keyboard: characters arrive for an area."""
        del tid
        area = int(body["area"])
        self._keyboard.setdefault(area, collections.deque()).append(
            str(body["data"]))
        readers = self._readers.get(area)
        while readers and self._keyboard[area]:
            # A reader whose deadline won still takes its line.
            process, token = readers.popleft()
            process.wake(token, self._keyboard[area].popleft())
        return {}
        yield  # pragma: no cover

    def op_read_line_from_area(self, body: dict, tid: TransactionID):
        """ReadLineFromArea: wait for input, echo it boxed."""
        area = int(body["area"])
        slot = yield from self._ensure_ownership(area, tid)
        buffered = self._keyboard.setdefault(area, collections.deque())
        if buffered:
            text = buffered.popleft()
        else:
            process: Process = self.ctx_engine.active_process  # type: ignore
            token = process.park(float(body.get("max_wait_ms", 60_000.0)))
            self._readers.setdefault(area, collections.deque()).append(
                (process, token))
            text = yield PARKED
            if text is None:
                raise ServerError(f"area {area}: no input arrived")
        yield from self._append_line(area, slot, text, boxed=True)
        return {"data": text}

    @property
    def ctx_engine(self):
        return self.node.ctx.engine

    def on_recovered(self):
        """Restore the screen bookkeeping after a crash.

        The permanent data (lines, counts, state slots) came back through
        log replay; what needs rebuilding is the volatile allocation state:
        which areas and ownership slots are in use.  Ownerships that were
        in progress at the crash read ``aborted`` now -- the recovery
        mechanisms reset their state objects -- so their output renders
        struck through, exactly the paper's user model.
        """
        for area in range(self.MAX_AREAS):
            count = yield from self.library.read_object(self._count_oid(area))
            if count is None:
                break
            self._next_area = area + 1
            for slot in range(STATE_SLOTS_PER_AREA):
                value = yield from self.library.read_object(
                    self._state_oid(area, slot))
                if value is None:
                    break
                self._next_state_slot[area] = slot + 1

    # -- rendering (Figure 4-1) ----------------------------------------------------------

    def render_area(self, area: int):
        """ASCII rendering of one area (generator).

        Committed lines print plainly, in-progress lines carry a ``~``
        prefix (grey), aborted lines are struck through with dashes, and
        echoed user input is boxed in brackets.
        """
        count_oid = self._count_oid(area)
        count = yield from self.library.read_object(count_oid)
        rendered = []
        for line in range(int(count or 0)):
            stored = yield from self.library.read_object(
                self._line_oid(area, line))
            if stored is None:
                continue
            text, slot, boxed = stored
            status = yield from self._status_of_slot(area, slot)
            shown = f"[{text}]" if boxed else text
            if status == IN_PROGRESS:
                rendered.append(f"~ {shown}")
            elif status == COMMITTED:
                rendered.append(f"  {shown}")
            else:
                rendered.append(f"  {'-'.join(['', *shown.split(), ''])}"
                                if shown.strip() else "  ---")
        return rendered

    def op_render_area(self, body: dict, tid: TransactionID):
        del tid
        lines = yield from self.render_area(int(body["area"]))
        return {"lines": lines}
