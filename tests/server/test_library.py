"""Unit tests for the server library (Table 3-1), against a live node."""

import pytest

from repro import TabsCluster
from repro.errors import ServerError
from repro.kernel.disk import PAGE_SIZE
from repro.kernel.service import request
from repro.kernel.vm import ObjectID
from repro.locking.modes import WRITE
from repro.server.library import DataServerLibrary
from repro.servers.base import BaseDataServer
from repro.txn.ids import TransactionID
from tests.property.conftest import fast_config


class ScratchServer(BaseDataServer):
    """A bare server exposing the library for direct exercise."""

    TYPE_NAME = "scratch"
    SEGMENT_PAGES = 16

    def op_poke(self, body, tid):
        return {"ok": True}
        yield  # pragma: no cover


@pytest.fixture
def env():
    cluster = TabsCluster(fast_config())
    cluster.add_node("n1")
    cluster.add_server("n1", ScratchServer.factory("scratch"))
    cluster.start()
    server = cluster.node("n1").servers["scratch"]
    app = cluster.application("n1")
    return cluster, server, app


def begin(cluster, app):
    def body():
        tid = yield from app.begin_transaction()
        return tid
    return cluster.run_on("n1", body())


class TestAddressArithmetic:
    def test_create_object_id_roundtrip(self, env):
        cluster, server, app = env
        lib = server.library
        oid = lib.create_object_id(server.base_va + 100, 8)
        assert oid == ObjectID(server.segment_id, 100, 8)
        assert lib.convert_object_id_to_va(oid) == server.base_va + 100

    def test_out_of_segment_va_rejected(self, env):
        cluster, server, app = env
        with pytest.raises(Exception):
            server.library.create_object_id(1, 8)


class TestPinDiscipline:
    def test_write_to_unpinned_object_rejected(self, env):
        cluster, server, app = env
        lib = server.library
        oid = lib.create_object_id(server.base_va, 8)

        def body():
            yield from lib.write_object(oid, 1)

        with pytest.raises(ServerError, match="unpinned"):
            cluster.run_on("n1", body())

    def test_log_and_unpin_requires_pin_and_buffer(self, env):
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oid = lib.create_object_id(server.base_va, 8)

        def body():
            yield from lib.log_and_unpin(tid, oid)

        with pytest.raises(ServerError, match="without pin_and_buffer"):
            cluster.run_on("n1", body())

    def test_multi_page_object_rejected_for_value_logging(self, env):
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oid = lib.create_object_id(server.base_va, 2 * PAGE_SIZE)

        def body():
            yield from lib.pin_and_buffer(tid, oid)

        with pytest.raises(ServerError, match="one page"):
            cluster.run_on("n1", body())

    def test_pin_and_buffer_captures_old_value(self, env):
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oid = lib.create_object_id(server.base_va, 8)

        def body():
            yield from lib.lock_object(tid, oid, WRITE)
            yield from lib.pin_and_buffer(tid, oid)
            yield from lib.write_object(oid, "new")
            yield from lib.log_and_unpin(tid, oid)

        cluster.run_on("n1", body())
        durable = cluster.node("n1").rm.wal.record_at(
            cluster.node("n1").rm.wal.last_lsn - 0)  # newest record
        # The newest chained record for the txn carries old None -> "new".
        chain_head = cluster.node("n1").rm._chains[tid]
        record = cluster.node("n1").rm.wal.record_at(chain_head)
        assert record.old_value is None
        assert record.new_value == "new"
        del durable


class TestMarkedObjects:
    def test_batch_cycle(self, env):
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oids = [lib.create_object_id(server.base_va + i * 8, 8)
                for i in range(3)]

        def body():
            for oid in oids:
                yield from lib.lock_and_mark(tid, oid, WRITE)
            yield from lib.pin_and_buffer_marked_objects(tid)
            for index, oid in enumerate(oids):
                yield from lib.write_object(oid, index)
            yield from lib.log_and_unpin_marked_objects(tid)

        cluster.run_on("n1", body())
        local = lib._txns[tid]
        assert local.marked == []
        assert local.buffers == {}
        assert local.write_set == set(oids)
        for oid in oids:
            assert not cluster.node("n1").node.vm.is_pinned(oid)

    def test_locks_all_acquired_before_any_pin(self, env):
        """The checkpoint protocol requires no waiting while pinned; the
        marked-object batch acquires every lock before pinning anything."""
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oids = [lib.create_object_id(server.base_va + i * 8, 8)
                for i in range(2)]

        def body():
            for oid in oids:
                yield from lib.lock_and_mark(tid, oid, WRITE)
            # Both locks held, nothing pinned yet.
            assert all(lib.locks.holds(tid, oid, WRITE) for oid in oids)
            assert not any(cluster.node("n1").node.vm.is_pinned(oid)
                           for oid in oids)
            yield from lib.pin_and_buffer_marked_objects(tid)

        cluster.run_on("n1", body())


class TestUnPinAllObjects:
    def test_unpin_all_releases_every_pinned_object(self, env):
        """The paper's ``UnPinAllObjects``: two objects on different pages
        pinned through the data server, both released by one kernel
        call."""
        cluster, server, app = env
        lib = server.library
        vm = cluster.node("n1").node.vm
        oids = [lib.create_object_id(server.base_va, 8),
                lib.create_object_id(server.base_va + PAGE_SIZE, 8)]

        def body():
            for oid in oids:
                yield from lib.pin_object(oid)

        cluster.run_on("n1", body())
        assert all(vm.is_pinned(oid) for oid in oids)
        vm.unpin_all()
        assert not any(vm.is_pinned(oid) for oid in oids)


class TestOperationLoggingApi:
    def test_log_operation_requires_registered_appliers(self, env):
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oid = lib.create_object_id(server.base_va, 8)

        def body():
            yield from lib.pin_object(oid)
            yield from lib.log_operation(tid, "mystery", (), "mystery", (),
                                         (oid,))

        with pytest.raises(ServerError, match="no registered recovery"):
            cluster.run_on("n1", body())

    def test_recovery_applier_dispatch(self, env):
        cluster, server, app = env
        lib = server.library
        applied = []

        def applier(args):
            applied.append(args)
            return
            yield

        lib.register_recovery_operation("noted", applier)
        cluster.run_on("n1", lib.recovery_applier("noted", (1, 2)))
        assert applied == [(1, 2)]


class TestFailureHandling:
    def test_failed_operation_releases_pins(self, env):
        """An operation that raises mid-way must not leave pages pinned
        (a pinned page can never be evicted or checkpointed)."""
        cluster, server, app = env
        lib = server.library
        oid = lib.create_object_id(server.base_va, 8)

        def failing(op, body, tid):
            yield from lib.lock_object(tid, oid, WRITE)
            yield from lib.pin_and_buffer(tid, oid)
            raise ServerError("operation exploded")

        server.library.accept_requests(failing)
        tid = begin(cluster, app)

        def call():
            ref = yield from app.lookup_one("scratch")
            yield from app.call(ref, "anything", {}, tid)

        with pytest.raises(ServerError, match="exploded"):
            cluster.run_on("n1", call())
        assert not cluster.node("n1").node.vm.is_pinned(oid)

    def test_abort_mid_second_cycle_restores_first_committed_value(self, env):
        """A transaction that logged a write of an object in an earlier
        cycle and aborts mid-way through a *second* (pinned, written,
        unlogged) cycle of the same object must come back to the value
        committed before its first write: the RM's undo walk restores
        it, and the abort scrub of the in-flight cycle must not
        overwrite that with the transaction's own -- equally aborted --
        first write."""
        cluster, server, app = env
        lib = server.library
        oid = lib.create_object_id(server.base_va + 256, 8)

        def seed():
            tid = yield from app.begin_transaction()
            yield from lib._ensure_joined(tid)
            yield from lib.lock_object(tid, oid, WRITE)
            yield from lib.pin_and_buffer(tid, oid)
            yield from lib.write_object(oid, "committed")
            yield from lib.log_and_unpin(tid, oid)
            committed = yield from app.end_transaction(tid)
            assert committed

        cluster.run_on("n1", seed())

        def aborted():
            tid = yield from app.begin_transaction()
            yield from lib._ensure_joined(tid)
            yield from lib.lock_object(tid, oid, WRITE)
            yield from lib.pin_and_buffer(tid, oid)  # cycle 1, logged
            yield from lib.write_object(oid, "first")
            yield from lib.log_and_unpin(tid, oid)
            yield from lib.pin_and_buffer(tid, oid)  # cycle 2, never logged
            yield from lib.write_object(oid, "second")
            yield from app.abort_transaction(tid)

        cluster.run_on("n1", aborted())

        def read():
            value = yield from lib.read_object(oid)
            return value

        assert cluster.run_on("n1", read()) == "committed"
        assert not cluster.node("n1").node.vm.is_pinned(oid)

    def test_unknown_system_op_rejected(self, env):
        cluster, server, app = env
        from repro.kernel.messages import Message
        from repro.kernel.ports import Port

        reply = Port(cluster.ctx, node=cluster.node("n1").node)
        server.library.port.send(Message(op="ds.bogus", reply_to=reply))
        response = cluster.engine.run_until(reply.receive())
        assert "error" in response.body


class TestRarePaths:
    """Library branches no workload takes, one test each."""

    def test_recover_server_needs_the_segment_mapped_first(self, env):
        cluster, server, app = env
        library = DataServerLibrary(server.node, "unmapped")
        with pytest.raises(ServerError, match="read_permanent_data"):
            next(library.recover_server())

    def test_an_unregistered_recovery_operation_is_refused(self, env):
        cluster, server, app = env
        with pytest.raises(ServerError, match="no recovery operation"):
            cluster.run_on("n1", server.library.recovery_applier("nope", ()))

    def test_execute_transaction_aborts_its_own_transaction_on_failure(
            self, env):
        """The procedure counts as an operation of its transaction only
        while it runs: the abort that follows its failure does not wait
        for it, and releases what it locked."""
        cluster, server, app = env
        lib = server.library
        oid = lib.create_object_id(server.base_va, 8)
        ran = []

        def procedure(tid):
            ran.append(tid)
            yield from lib.lock_object(tid, oid, WRITE)
            raise ServerError("procedure exploded")

        with pytest.raises(ServerError, match="exploded"):
            cluster.run_on("n1", lib.execute_transaction(procedure))
        (tid,) = ran
        assert cluster.node("n1").tm.phase_of(tid) is None
        assert tid in cluster.node("n1").node.aborted
        assert not lib.locks.is_locked(oid)

    def test_prepare_of_a_transaction_the_server_never_saw_is_read_only(
            self, env):
        cluster, server, app = env
        tid = TransactionID("n1", 404)
        reply = cluster.run_on("n1", request(
            cluster.node("n1").node, server.library.port, "ds.prepare",
            {"tid": tid}, reply="prepare-reply"))
        assert reply == {"vote": "read_only"}

    def test_prepare_with_an_object_still_buffered_is_refused(self, env):
        """Pinned and buffered but never logged: the server cannot vote
        for a write its log does not hold."""
        cluster, server, app = env
        lib = server.library
        tid = begin(cluster, app)
        oid = lib.create_object_id(server.base_va, 8)

        def half_cycle():
            yield from lib.lock_object(tid, oid, WRITE)
            yield from lib.pin_and_buffer(tid, oid)

        cluster.run_on("n1", half_cycle())
        with pytest.raises(ServerError, match="still pinned"):
            cluster.run_on("n1", request(
                cluster.node("n1").node, lib.port, "ds.prepare",
                {"tid": tid}, reply="prepare-reply"))


class TestSubtransactionTransfer:
    def test_subtxn_commit_merges_server_state(self, env):
        cluster, server, app = env
        lib = server.library
        parent = TransactionID("n1", 77)
        child = parent.child(1)
        oid = lib.create_object_id(server.base_va, 8)

        def body():
            yield from lib.lock_object(child, oid, WRITE)
            yield from lib.pin_and_buffer(child, oid)
            yield from lib.write_object(oid, 5)
            yield from lib.log_and_unpin(child, oid)

        cluster.run_on("n1", body())
        from repro.kernel.messages import Message
        from repro.kernel.ports import Port

        reply = Port(cluster.ctx, node=cluster.node("n1").node)
        lib.port.send(Message(op="ds.subtxn_commit",
                              body={"child": child, "parent": parent},
                              reply_to=reply))
        cluster.engine.run_until(reply.receive())
        assert lib.locks.holds(parent, oid, WRITE)
        assert not lib.locks.holds(child, oid)
        assert oid in lib._txns[parent].write_set
        assert child not in lib._txns
