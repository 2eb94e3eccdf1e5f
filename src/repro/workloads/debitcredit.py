"""Gray's DebitCredit banking workload over the TABS facility.

The schema is the TPC-B / *Thousands of DebitCredit Transactions-Per-
Second in Low-Cost Systems* bank: every **branch** has a balance row,
``tellers_per_branch`` teller rows, an account partition of
``accounts_per_branch`` logical accounts, and a history file.  One
DebitCredit transaction moves a signed amount through all four tiers::

    update account  (the customer's row; usually the home branch's)
    update teller   (the teller the customer walked up to)
    update branch   (the HOT row: every local transaction writes it)
    append history  (one row per transaction; rewards group commit)

Branches are packed ``branches_per_node`` to a cluster node (``bank0``,
``bank1``, ...), so a transaction whose account lives at a branch on
another node -- up to ``1 - locality`` of the traffic -- becomes a
cross-node two-phase commit.  The branch balance row is the canonical
hot spot: under strict two-phase locking it is held from the branch
update until commit completes, so under an exclusive lock commit-path
latency (log forces, 2PC datagrams) would translate directly into lost
throughput and a branch would commit one transaction at a time.  Adds
to a balance commute, though, and no DebitCredit transaction reads the
branch or teller total back -- so those rows take a type-specific
INCREMENT lock (:class:`CommutingBalanceServer`) that a branch's
transactions hold together, and what they share is the node's one
serial log device.  That is exactly the regime where the ``grouped``
commit pipeline earns its keep: one physical force completes every
commit queued in the window, of one branch or of several.

Money conservation is the workload's master invariant: branches,
tellers, and accounts are three redundant ledgers of the same flows, so
after a drain ``sum(branches) == sum(tellers) == sum(accounts) ==
sum(history amounts)`` whatever committed, aborted, or died mid-2PC --
and the history row count equals the number of committed transactions.
:class:`DebitCreditWorkload` drives seeded traffic (optionally under a
chaos controller) and audits all of it.

Accounts scale to millions per branch: cells live in a *sparse*
recoverable segment -- pages materialize only when first written, and
the simulated disk stores only written sectors -- so segment size costs
address space, not memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ServerError
from repro.kernel.disk import PAGE_SIZE
from repro.locking.modes import (
    INCREMENT,
    READ,
    READ_WRITE_INCREMENT_PROTOCOL,
    WRITE,
)
from repro.recovery.audit import AuditViolation
from repro.replication.placement import PlacementMap
from repro.replication.router import ReplicatedApp
from repro.replication.server import (
    ReplicatedServerMixin,
    pack_cell,
    unpack_cell,
)
from repro.servers.base import BaseDataServer
from repro.txn.ids import TransactionID
from repro.workloads.harness import SeededWorkload, TxnRecord

#: cells are one word, as in the integer array server
WORD_SIZE = 4


def pages_for(rows: int) -> int:
    """Segment pages needed to address ``rows`` one-word cells."""
    return max(1, -(-rows * WORD_SIZE // PAGE_SIZE))


class RowOutOfRange(ServerError):
    """A row index outside the server's configured scale."""


class BalanceServer(BaseDataServer):
    """A recoverable array of balance rows.

    The DebitCredit tiers (branch, teller, account) differ in scale, in
    which rows are hot, and in whether the transaction reads the balance
    back.  Unlike the integer array's GetCell/SetCell, each tier's
    update is a single ``add_to_balance`` operation -- one RPC locks,
    adjusts, and logs the row, which is both how the original workload
    is written and what keeps the per-transaction message count at one
    per tier.
    """

    TYPE_NAME = "balance_server"

    def __init__(self, tabs_node, name: str, rows: int) -> None:
        super().__init__(tabs_node, name)
        self.rows = rows
        self.SEGMENT_PAGES = pages_for(rows)

    def _row_oid(self, row: int):
        if not 1 <= row <= self.rows:
            raise RowOutOfRange(
                f"{self.name}: row {row} outside 1..{self.rows}")
        va = self.base_va + (row - 1) * WORD_SIZE
        return self.library.create_object_id(va, WORD_SIZE)

    def op_get_balance(self, body: dict, tid: TransactionID):
        oid = self._row_oid(body["row"])
        yield from self.library.lock_object(tid, oid, READ)
        value = yield from self.library.read_object(oid)
        return {"balance": int(value) if value is not None else 0}

    def _count_update(self) -> None:
        self.node.ctx.metrics.counter(self.node.name,
                                      f"{self.TYPE_NAME}.updates").inc()


class AccountServer(BalanceServer):
    """The branch's account partition -- sparse, possibly millions.

    The transaction hands the customer the new balance, so it must own
    the row outright: WRITE lock, value logging.
    """

    TYPE_NAME = "account_server"

    def op_add_to_balance(self, body: dict, tid: TransactionID):
        """Lock, read, add ``amount``, log; returns the new balance."""
        oid = self._row_oid(body["row"])
        amount = int(body["amount"])
        lib = self.library
        yield from lib.lock_object(tid, oid, WRITE)
        yield from lib.pin_and_buffer(tid, oid)
        old = yield from lib.read_object(oid)
        balance = (int(old) if old is not None else 0) + amount
        yield from lib.write_object(oid, balance)
        yield from lib.log_and_unpin(tid, oid)
        self._count_update()
        return {"balance": balance}


class CommutingBalanceServer(BalanceServer):
    """Balance rows a DebitCredit transaction adds to and never reads:
    the branch and teller totals.

    Adds to one row commute, so they take the type-specific INCREMENT
    lock (compatible with itself only) and any number of transactions
    hold the hot row together, from their update through their commit;
    a reader (an inquiry, the audit) still waits for all of them.  With
    several uncommitted holders there is no single old value to restore,
    so the update is logged as an *operation* -- ``add_balance(row,
    amount)``, undone by ``add_balance(row, -amount)`` -- the case
    operation logging exists for (Section 2.1.3; Schwarz & Spector).
    """

    PROTOCOL = READ_WRITE_INCREMENT_PROTOCOL

    def configure(self) -> None:
        self.library.register_recovery_operation(
            "add_balance", self._apply_add, lock_mode=INCREMENT)

    def _apply_add(self, args):
        row, amount = args
        yield from self.node.vm.add_to_object(self._row_oid(row), amount)

    def op_add_to_balance(self, body: dict, tid: TransactionID):
        """Lock in INCREMENT, add ``amount``, log the add.  The reply
        carries no balance: the sum includes uncommitted amounts."""
        row, amount = body["row"], int(body["amount"])
        oid = self._row_oid(row)
        lib = self.library
        yield from lib.lock_object(tid, oid, INCREMENT)
        yield from lib.pin_object(oid)
        try:
            yield from lib.add_to_object(oid, amount)
            # Formatting the record costs what it costs the value-logged
            # account tier, so an uncontended update takes as long there
            # as here.
            yield self.node.ctx.cpu("DS",
                                    self.node.ctx.cpu_costs.ds_log_format)
            yield from lib.log_operation(
                tid, "add_balance", (row, amount),
                "add_balance", (row, -amount), (oid,))
        finally:
            lib.unpin_object(oid)
        self._count_update()
        return {}


class BranchServer(CommutingBalanceServer):
    """One row: the branch balance, the workload's hot spot."""

    TYPE_NAME = "branch_server"


class TellerServer(CommutingBalanceServer):
    """The branch's teller balances (row = teller number)."""

    TYPE_NAME = "teller_server"


class HistoryServer(BaseDataServer):
    """The history file, laid out as one append strand per teller.

    A global append pointer would be a *second* hot row, which Gray's
    paper avoids by partitioning the history file; here each teller owns
    a strand; its cursor cell is where two transactions of one teller
    serialize (the teller balance row admits them together).  Cell
    layout: cells ``1..strands`` are the per-strand cursors, then strand
    ``s`` (0-based) stores row ``k`` at cell
    ``strands + s * slots + k + 1``.  An aborted transaction's cursor
    bump and row image both roll back through value logging, so the row
    count is exactly the committed transaction count.
    """

    TYPE_NAME = "history_server"

    def __init__(self, tabs_node, name: str, strands: int,
                 slots_per_strand: int) -> None:
        super().__init__(tabs_node, name)
        self.strands = strands
        self.slots = slots_per_strand
        self.SEGMENT_PAGES = pages_for(strands * (1 + slots_per_strand))

    def _cell_oid(self, cell: int):
        va = self.base_va + (cell - 1) * WORD_SIZE
        return self.library.create_object_id(va, WORD_SIZE)

    def _check_strand(self, strand: int) -> None:
        if not 0 <= strand < self.strands:
            raise RowOutOfRange(
                f"{self.name}: strand {strand} outside 0..{self.strands - 1}")

    def op_append(self, body: dict, tid: TransactionID):
        """Append one history row under ``tid`` (rolls back on abort)."""
        strand = int(body["strand"])
        self._check_strand(strand)
        lib = self.library
        cursor_oid = self._cell_oid(1 + strand)
        yield from lib.lock_object(tid, cursor_oid, WRITE)
        yield from lib.pin_and_buffer(tid, cursor_oid)
        raw = yield from lib.read_object(cursor_oid)
        count = int(raw) if raw is not None else 0
        if count >= self.slots:
            raise ServerError(f"{self.name}: strand {strand} full "
                              f"({self.slots} rows)")
        row = (int(body["amount"]), int(body["branch"]),
               int(body["teller"]), int(body["account"]))
        row_oid = self._cell_oid(self.strands + strand * self.slots
                                 + count + 1)
        yield from lib.lock_object(tid, row_oid, WRITE)
        yield from lib.pin_and_buffer(tid, row_oid)
        yield from lib.write_object(row_oid, row)
        yield from lib.log_and_unpin(tid, row_oid)
        yield from lib.write_object(cursor_oid, count + 1)
        yield from lib.log_and_unpin(tid, cursor_oid)
        self.node.ctx.metrics.counter(self.node.name,
                                      "history_server.appends").inc()
        return {"slot": count}

    def op_strand_count(self, body: dict, tid: TransactionID):
        strand = int(body["strand"])
        self._check_strand(strand)
        oid = self._cell_oid(1 + strand)
        yield from self.library.lock_object(tid, oid, READ)
        raw = yield from self.library.read_object(oid)
        return {"count": int(raw) if raw is not None else 0}

    def op_read_row(self, body: dict, tid: TransactionID):
        strand, slot = int(body["strand"]), int(body["slot"])
        self._check_strand(strand)
        if not 0 <= slot < self.slots:
            raise RowOutOfRange(f"{self.name}: slot {slot} outside "
                                f"0..{self.slots - 1}")
        oid = self._cell_oid(self.strands + strand * self.slots + slot + 1)
        yield from self.library.lock_object(tid, oid, READ)
        row = yield from self.library.read_object(oid)
        return {"row": list(row) if row is not None else None}


# -- replicated servers --------------------------------------------------------
#
# Under available-copies replication a read-modify-write computes a
# different result on a stale copy, so it *executes* at one copy only --
# the first available in placement order, where same-cell writers
# serialise (``ReplicatedApp.write_all``) -- and its reply names, under
# ``"copy"``, the absolute ``put`` every other available copy stores.
# Cells become versioned tuples so a recovering replica's catch-up can
# merge without regressing fresher local writes; that copy stamps the
# version under the cell's lock and the ``put`` carries it, so every
# copy of one write holds the same cell.


class ReplicatedBalanceServer(ReplicatedServerMixin, BalanceServer):
    """A balance tier whose rows are replicated versioned cells."""

    GATED_OPS = ("get_balance", "add_to_balance")

    def serialising_oid(self, op: str, body: dict):
        if op == "add_to_balance":
            return self._row_oid(body["row"])
        return None

    def _read_balance(self, row: int, tid: TransactionID, mode):
        oid = self._row_oid(row)
        yield from self.library.lock_object(tid, oid, mode)
        raw = yield from self.library.read_object(oid)
        _, value = unpack_cell(raw)
        return int(value) if value is not None else 0

    def op_get_balance(self, body: dict, tid: TransactionID):
        balance = yield from self._read_balance(body["row"], tid, READ)
        return {"balance": balance}

    def op_add_to_balance(self, body: dict, tid: TransactionID):
        """The read-modify-write, at the copy where same-row contenders
        serialise: write-lock, add ``amount``, stamp the version, store.
        ``"copy"`` is the write the other copies store, version and
        all."""
        old = yield from self._read_balance(body["row"], tid, WRITE)
        put = {"row": body["row"], "balance": old + int(body["amount"]),
               "version": self.node.ctx.now}
        reply = yield from self.op_put_balance(put, tid)
        reply["copy"] = ("put_balance", put)
        return reply

    def op_put_balance(self, body: dict, tid: TransactionID):
        """Store an absolute balance at ``body["version"]``.  Without
        one this is the first copy of a blind write: it stamps the
        version once it holds the row, and ``"copy"`` names it."""
        oid = self._row_oid(body["row"])
        balance = int(body["balance"])
        lib = self.library
        yield from lib.lock_object(tid, oid, WRITE)
        reply = {"balance": balance}
        version = body.get("version")
        if version is None:
            version = self.node.ctx.now
            reply["copy"] = ("put_balance", {**body, "version": version})
        yield from lib.pin_and_buffer(tid, oid)
        yield from lib.write_object(oid, pack_cell(version, balance))
        yield from lib.log_and_unpin(tid, oid)
        self._count_update()
        return reply


class ReplicatedBranchServer(ReplicatedBalanceServer):
    TYPE_NAME = "branch_server"


class ReplicatedTellerServer(ReplicatedBalanceServer):
    TYPE_NAME = "teller_server"


class ReplicatedAccountServer(ReplicatedBalanceServer):
    TYPE_NAME = "account_server"


class ReplicatedHistoryServer(ReplicatedServerMixin, HistoryServer):
    """History strands as versioned cells: ``append`` picks the slot at
    one copy, ``put_row`` stores row and cursor at the others."""

    GATED_OPS = ("strand_count", "read_row", "append")

    def serialising_oid(self, op: str, body: dict):
        if op == "append":
            return self._cell_oid(1 + int(body["strand"]))
        return None

    def _read_count(self, strand: int, tid: TransactionID, mode):
        self._check_strand(strand)
        oid = self._cell_oid(1 + strand)
        yield from self.library.lock_object(tid, oid, mode)
        raw = yield from self.library.read_object(oid)
        _, value = unpack_cell(raw)
        return int(value) if value is not None else 0

    def op_strand_count(self, body: dict, tid: TransactionID):
        count = yield from self._read_count(int(body["strand"]), tid, READ)
        return {"count": count}

    def op_append(self, body: dict, tid: TransactionID):
        """Append at the copy where one strand's appends serialise:
        write-lock the cursor, stamp the version, store the row at the
        slot the cursor names.  ``"copy"`` is the write the other copies
        store, version and all."""
        slot = yield from self._read_count(int(body["strand"]), tid, WRITE)
        put = {**body, "slot": slot, "version": self.node.ctx.now}
        reply = yield from self.op_put_row(put, tid)
        reply["copy"] = ("put_row", put)
        return reply

    def _row_cell(self, strand: int, slot: int) -> int:
        self._check_strand(strand)
        if not 0 <= slot < self.slots:
            raise RowOutOfRange(f"{self.name}: slot {slot} of strand "
                                f"{strand} outside 0..{self.slots - 1}")
        return self.strands + strand * self.slots + slot + 1

    def op_read_row(self, body: dict, tid: TransactionID):
        oid = self._cell_oid(self._row_cell(int(body["strand"]),
                                            int(body["slot"])))
        yield from self.library.lock_object(tid, oid, READ)
        raw = yield from self.library.read_object(oid)
        _, row = unpack_cell(raw)
        return {"row": list(row) if row is not None else None}

    def _put_cell(self, cell: int, value: object, version: float,
                  tid: TransactionID):
        oid = self._cell_oid(cell)
        lib = self.library
        yield from lib.lock_object(tid, oid, WRITE)
        yield from lib.pin_and_buffer(tid, oid)
        yield from lib.write_object(oid, pack_cell(version, value))
        yield from lib.log_and_unpin(tid, oid)

    def op_put_row(self, body: dict, tid: TransactionID):
        """Store the row at ``slot`` and move the strand's cursor past
        it, both at ``body["version"]`` (``append`` at another copy chose
        the slot); a slot past the strand's end is the strand-full
        error.  Without a version this is the first copy of a blind
        write: it stamps one once it holds the cursor, and ``"copy"``
        names it."""
        strand, slot = int(body["strand"]), int(body["slot"])
        row = (int(body["amount"]), int(body["branch"]),
               int(body["teller"]), int(body["account"]))
        row_cell = self._row_cell(strand, slot)
        reply: dict = {"slot": slot}
        version = body.get("version")
        if version is None:
            yield from self.library.lock_object(
                tid, self._cell_oid(1 + strand), WRITE)
            version = self.node.ctx.now
            reply["copy"] = ("put_row", {**body, "version": version})
        yield from self._put_cell(row_cell, row, version, tid)
        yield from self._put_cell(1 + strand, slot + 1, version, tid)
        self.node.ctx.metrics.counter(self.node.name,
                                      "history_server.appends").inc()
        return reply


# -- topology ------------------------------------------------------------------


@dataclass(frozen=True)
class DebitCreditTopology:
    """Where everything lives: branches packed onto ``bank{n}`` nodes.

    Branch ``b`` (its balance row, tellers, account partition, and
    history strands) is hosted by node ``bank{b // branches_per_node}``.
    With the default of one branch per node the hot row serializes the
    node's whole commit stream; co-hosting branches gives each node's
    log device independent, concurrently committing streams.
    """

    branches: int
    branches_per_node: int = 1

    @property
    def nodes(self) -> int:
        return -(-self.branches // self.branches_per_node)

    def node_name(self, branch: int) -> str:
        return f"bank{branch // self.branches_per_node}"

    def branches_on(self, node: str) -> list[int]:
        return [b for b in range(self.branches)
                if self.node_name(b) == node]

    def client_home(self, client: int) -> int:
        """Home branch for closed-loop client ``client``.

        Branches are dealt node-first (branch 0 of node 0, branch 0 of
        node 1, ..., then the second branch of each node) so that any
        client count spreads evenly over nodes before it doubles up on
        branches -- naive ``client % branches`` would pile the first
        ``branches_per_node`` clients onto one node.
        """
        dealt = [branch
                 for offset in range(self.branches_per_node)
                 for branch in range(offset, self.branches,
                                     self.branches_per_node)]
        return dealt[client % self.branches]

    @property
    def node_names(self) -> list[str]:
        return [f"bank{group}" for group in range(self.nodes)]

    def branch_server(self, branch: int) -> str:
        return f"branch{branch}"

    def teller_server(self, branch: int) -> str:
        return f"tellers{branch}"

    def account_server(self, branch: int) -> str:
        return f"accounts{branch}"

    def history_server(self, branch: int) -> str:
        return f"history{branch}"


def build_debitcredit(cluster) -> DebitCreditTopology:
    """Lay the DebitCredit schema over a *fresh* cluster and start it.

    ``branches_per_node`` branches per node; each branch contributes its
    balance row, teller array, (sparse) account partition, and
    per-teller history strands, all on the branch's home node.  Reads
    the scale from ``cluster.config.workload``.  With
    ``config.replication.enabled`` (available copies) each of those four
    key-spaces is instead placed on ``replication_factor`` nodes by ring
    placement anchored at the home node: the same server name recurs on
    each replica node (segment ids ``{node}:{name}`` stay unique), which
    is what lets the Name Server scope lookups per replica.
    """
    workload = cluster.config.workload
    replication = cluster.config.replication
    topology = DebitCreditTopology(
        branches=workload.branches,
        branches_per_node=workload.branches_per_node)
    for node in topology.node_names:
        cluster.add_node(node)
    branch_cls, teller_cls, account_cls, history_cls = (
        (ReplicatedBranchServer, ReplicatedTellerServer,
         ReplicatedAccountServer, ReplicatedHistoryServer)
        if replication.enabled else
        (BranchServer, TellerServer, AccountServer, HistoryServer))
    anchors: dict[str, int] = {}  # key-space -> index of its home node
    factories: dict[str, object] = {}
    for branch in range(workload.branches):
        for name, server_cls, scale in (
                (topology.branch_server(branch), branch_cls, {"rows": 1}),
                (topology.teller_server(branch), teller_cls,
                 {"rows": workload.tellers_per_branch}),
                (topology.account_server(branch), account_cls,
                 {"rows": workload.accounts_per_branch}),
                (topology.history_server(branch), history_cls,
                 {"strands": workload.tellers_per_branch,
                  "slots_per_strand": workload.history_slots_per_teller})):
            anchors[name] = branch // workload.branches_per_node
            factories[name] = server_cls.factory(name, **scale)
    if replication.enabled:
        placement = PlacementMap.ring(
            list(factories), topology.node_names,
            replication.replication_factor, anchors)
        cluster.set_placement(placement)
    for name, factory in factories.items():
        for node in (placement.replicas(name) if replication.enabled
                     else [topology.node_names[anchors[name]]]):
            cluster.add_server(node, factory)
    cluster.start()
    return topology


# -- the transaction -----------------------------------------------------------


@dataclass(frozen=True)
class TxnSpec:
    """One DebitCredit transaction, fully decided before it runs."""

    home_branch: int
    teller: int          # 1..tellers_per_branch, in the home branch
    account_branch: int  # == home_branch for `locality` of the traffic
    account: int         # 1..accounts_per_branch, in account_branch
    amount: int          # signed, never zero

    @property
    def remote(self) -> bool:
        return self.account_branch != self.home_branch


def draw_spec(rng: random.Random, workload, home_branch: int) -> TxnSpec:
    """Draw one transaction: 90/10 branch locality, signed amount."""
    if (workload.branches > 1
            and rng.random() >= workload.locality):
        others = [b for b in range(workload.branches) if b != home_branch]
        account_branch = rng.choice(others)
    else:
        account_branch = home_branch
    magnitude = rng.randint(1, workload.max_delta)
    return TxnSpec(
        home_branch=home_branch,
        teller=rng.randint(1, workload.tellers_per_branch),
        account_branch=account_branch,
        account=rng.randint(1, workload.accounts_per_branch),
        amount=magnitude if rng.random() < 0.5 else -magnitude)


def debitcredit_txn(app, topology: DebitCreditTopology, spec: TxnSpec,
                    tid: TransactionID):
    """The transaction body: account, teller, branch (hot row), history.

    The hot branch row is updated last of the three balances, Gray's
    standard trick: the lock on the row every sibling wants is held
    only across the history append and commit, not the whole
    transaction -- sibling updates share it (INCREMENT), the inquiries
    that read it wait that long.  The ordering
    (accounts < tellers < branches < history) is also a global lock
    order, so the workload is deadlock-free by construction.
    """
    account_ref = yield from app.lookup_one(
        topology.account_server(spec.account_branch),
        node_name=topology.node_name(spec.account_branch))
    yield from app.call(account_ref, "add_to_balance",
                        {"row": spec.account, "amount": spec.amount}, tid)
    teller_ref = yield from app.lookup_one(
        topology.teller_server(spec.home_branch),
        node_name=topology.node_name(spec.home_branch))
    yield from app.call(teller_ref, "add_to_balance",
                        {"row": spec.teller, "amount": spec.amount}, tid)
    branch_ref = yield from app.lookup_one(
        topology.branch_server(spec.home_branch),
        node_name=topology.node_name(spec.home_branch))
    yield from app.call(branch_ref, "add_to_balance",
                        {"row": 1, "amount": spec.amount}, tid)
    history_ref = yield from app.lookup_one(
        topology.history_server(spec.home_branch),
        node_name=topology.node_name(spec.home_branch))
    yield from app.call(history_ref, "append",
                        {"strand": spec.teller - 1, "amount": spec.amount,
                         "branch": spec.home_branch, "teller": spec.teller,
                         "account": spec.account}, tid)


def replicated_debitcredit_txn(rapp: ReplicatedApp,
                               topology: DebitCreditTopology,
                               spec: TxnSpec, tid: TransactionID):
    """The transaction body over replicated tiers: account, teller,
    history, branch.

    The same four operations as :func:`debitcredit_txn`, but the
    branch row goes *after* the history append -- Gray's hot-spot-last
    rule.  Here every same-branch writer queues on that row (replicated
    tiers take WRITE locks, not INCREMENT): last, it is taken an append
    later, and its write-behind copy -- shorter than the history row's
    -- is the tail the coordinator joins before it prepares, so the
    commit, and the row's release, come sooner too.  The global lock
    order is accounts < tellers < history < branches, one order, so
    still deadlock-free.  Each update executes at the first available
    copy of its key-space, which serialises same-row contenders, and
    the absolute value it computed is written behind to every other
    available copy.  A written copy that fails before commit aborts the
    transaction at the coordinator's join or by commit-time validation.
    """
    for keyspace, row in (
            (topology.account_server(spec.account_branch), spec.account),
            (topology.teller_server(spec.home_branch), spec.teller)):
        yield from rapp.write_all(keyspace, "add_to_balance",
                                  {"row": row, "amount": spec.amount}, tid)
    yield from rapp.write_all(topology.history_server(spec.home_branch),
                              "append",
                              {"strand": spec.teller - 1,
                               "amount": spec.amount,
                               "branch": spec.home_branch,
                               "teller": spec.teller,
                               "account": spec.account}, tid)
    yield from rapp.write_all(topology.branch_server(spec.home_branch),
                              "add_to_balance",
                              {"row": 1, "amount": spec.amount}, tid)


# -- the seeded workload driver ------------------------------------------------


@dataclass
class DebitCreditRecord(TxnRecord):
    """One scheduled DebitCredit transaction and its fate."""

    spec: TxnSpec


class DebitCreditWorkload(SeededWorkload):
    """Seeded DebitCredit traffic plus the conservation audits.

    An **open, pre-drawn arrival schedule** on the shared
    :class:`~repro.workloads.harness.SeededWorkload` harness: every
    transaction's home branch, spec and arrival instant is drawn up
    front from one seeded RNG, and each runs as a process owned by its
    home-branch node.  (The *closed-loop* driver -- N clients, each
    starting its next transaction when the last one ends -- is
    :func:`repro.perf.debitcredit.run_debitcredit`.)  The ``controller``
    is optional: fault-free runs (the property suite) audit the same
    invariants without one.
    """

    PROCESS_PREFIX = "debitcredit"

    def __init__(self, cluster, topology: DebitCreditTopology,
                 controller=None, seed: int = 0) -> None:
        super().__init__(cluster, controller, seed)
        self.topology = topology
        self.workload = cluster.config.workload
        #: route through the available-copies protocol when the cluster
        #: was built replicated
        self.replicated = cluster.config.replication.enabled

    # -- traffic -------------------------------------------------------------

    def schedule_traffic(self, txns: int = 20, first_at_ms: float = 5.0,
                         spacing_ms: float = 120.0) -> None:
        """Schedule ``txns`` DebitCredit transactions at jittered instants."""
        self._schedule(self._draw(txns), first_at_ms, spacing_ms)

    def _draw(self, txns: int):
        for index in range(txns):
            home = self.rng.randrange(self.workload.branches)
            yield DebitCreditRecord(
                index, draw_spec(self.rng, self.workload, home))

    def client_node(self, record: DebitCreditRecord) -> str:
        return self.topology.node_name(record.spec.home_branch)

    def open_app(self, record: DebitCreditRecord):
        if self.replicated:
            return ReplicatedApp(self.cluster, self.client_node(record))
        return super().open_app(record)

    def body(self, app, record: DebitCreditRecord, tid):
        body_fn = (replicated_debitcredit_txn if self.replicated
                   else debitcredit_txn)
        return body_fn(app, self.topology, record.spec, tid)

    def trace_fields(self, record: DebitCreditRecord) -> tuple:
        spec = record.spec
        return (record.index, "debitcredit", record.outcome,
                spec.home_branch, spec.teller, spec.account_branch,
                spec.account, spec.amount)

    # -- audits --------------------------------------------------------------

    def _audit_home(self, branch: int) -> str:
        """The node to run a branch's audit reads from: its home node,
        unless retirement removed it -- replicated reads route by
        placement, so any live node can front them."""
        node = self.topology.node_name(branch)
        tabs_node = self.cluster.nodes.get(node)
        if tabs_node is not None and not tabs_node.retired:
            return node
        return min(name for name, candidate in self.cluster.nodes.items()
                   if not candidate.retired)

    def _reader(self, node: str):
        """``read(server, op, body, tid)`` for audit reads fronted by
        ``node``: any available copy under replication, else the one
        copy on ``node``."""
        if self.replicated:
            return ReplicatedApp(self.cluster, node).read
        app = self.cluster.application(node)

        def read(server: str, op: str, body: dict, tid: TransactionID):
            ref = yield from app.lookup_one(server, node_name=node)
            reply = yield from app.call(ref, op, body, tid)
            return reply

        return read

    def _tier_sums(self) -> dict[str, int]:
        """Per-tier totals, reading only rows the traffic could touch."""
        touched_accounts: dict[int, set[int]] = {}
        for record in self.stats.records:
            touched_accounts.setdefault(
                record.spec.account_branch, set()).add(record.spec.account)
        sums = {"branches": 0, "tellers": 0, "accounts": 0, "history": 0,
                "history_rows": 0}
        topology = self.topology
        for branch in range(self.workload.branches):
            node = self._audit_home(branch)

            def read_branch(tid, branch=branch, node=node):
                read = self._reader(node)
                reply = yield from read(topology.branch_server(branch),
                                        "get_balance", {"row": 1}, tid)
                totals = {"branches": reply["balance"], "tellers": 0,
                          "accounts": 0, "history": 0, "history_rows": 0}
                tellers = topology.teller_server(branch)
                for row in range(1, self.workload.tellers_per_branch + 1):
                    reply = yield from read(tellers, "get_balance",
                                            {"row": row}, tid)
                    totals["tellers"] += reply["balance"]
                accounts = topology.account_server(branch)
                for row in sorted(touched_accounts.get(branch, ())):
                    reply = yield from read(accounts, "get_balance",
                                            {"row": row}, tid)
                    totals["accounts"] += reply["balance"]
                history = topology.history_server(branch)
                for strand in range(self.workload.tellers_per_branch):
                    reply = yield from read(history, "strand_count",
                                            {"strand": strand}, tid)
                    count = reply["count"]
                    totals["history_rows"] += count
                    for slot in range(count):
                        reply = yield from read(
                            history, "read_row",
                            {"strand": strand, "slot": slot}, tid)
                        totals["history"] += reply["row"][0]
                return totals

            for tier, total in self.cluster.run_transaction(
                    node, read_branch).items():
                sums[tier] += total
        return sums

    def check_conservation(self) -> list[AuditViolation]:
        """The master invariant: three ledgers plus the history agree.

        Branch, teller, and account tiers each record every committed
        flow once, so their totals must coincide with each other and
        with the sum of the history rows; and the history row count must
        match the committed transaction count (bounded by client-side
        ``unknown`` outcomes, which may have committed either way).
        """
        sums = self._tier_sums()
        violations = []
        totals = {sums["branches"], sums["tellers"], sums["accounts"],
                  sums["history"]}
        if len(totals) != 1:
            violations.append(AuditViolation(
                "conservation",
                detail=f"tier totals diverge: branches={sums['branches']} "
                       f"tellers={sums['tellers']} "
                       f"accounts={sums['accounts']} "
                       f"history={sums['history']}"))
        committed = len(self.stats.committed())
        unknown = len(self.stats.unknown())
        if not committed <= sums["history_rows"] <= committed + unknown:
            violations.append(AuditViolation(
                "history-count",
                detail=f"{sums['history_rows']} history rows for "
                       f"{committed} committed (+{unknown} unknown) txns"))
        committed_total = sum(r.spec.amount for r in self.stats.committed())
        if unknown == 0 and sums["history"] != committed_total:
            violations.append(AuditViolation(
                "history-amounts",
                detail=f"history sums to {sums['history']}, committed "
                       f"amounts sum to {committed_total}"))
        return violations

    def workload_audits(self) -> list[AuditViolation]:
        return self.check_conservation()
