"""Unit tests for 2PC datagram coalescing (the grouped pipeline)."""

import pytest

from repro import TabsCluster
from repro.core.config import CommitConfig
from repro.kernel.messages import Message
from repro.kernel.ports import Port
from repro.servers.int_array import IntegerArrayServer
from repro.txn.coalesce import DatagramCoalescer
from repro.txn.ids import TransactionID
from tests.property.conftest import fast_config


def build(commit: CommitConfig | None = None, nodes: int = 1):
    cluster = TabsCluster(fast_config() if commit is None
                          else fast_config(commit=commit))
    for index in range(1, nodes + 1):
        cluster.add_node(f"n{index}")
    cluster.add_server("n1", IntegerArrayServer.factory("array"))
    cluster.start()
    return cluster


@pytest.fixture
def spy_coalescer():
    """A coalescer whose transmissions are captured instead of sent."""
    cluster = build(CommitConfig.grouped())
    coalescer = DatagramCoalescer(cluster.node("n1").node)
    sent: list[tuple[str, Message]] = []
    coalescer._transmit = lambda target, payload: \
        sent.append((target, payload))
    return cluster, coalescer, sent


def payload(op: str = "tm.vote", seq: int = 1) -> Message:
    return Message(op=op, tid=TransactionID("n1", seq),
                   body={"service": "transaction_manager", "from": "n1",
                         "tid": TransactionID("n1", seq)})


class TestInstallation:
    def test_paper_config_installs_no_coalescer(self):
        cluster = build()
        assert cluster.node("n1").tm._coalescer is None

    def test_grouped_config_installs_coalescer(self):
        cluster = build(CommitConfig.grouped())
        assert cluster.node("n1").tm._coalescer is not None


class TestBatching:
    def test_lone_payload_travels_unwrapped(self, spy_coalescer):
        cluster, coalescer, sent = spy_coalescer
        message = payload()
        coalescer.send("n2", message)
        cluster.settle()
        assert sent == [("n2", message)]
        assert coalescer.batches == 0

    def test_same_instant_payloads_share_one_datagram(self, spy_coalescer):
        cluster, coalescer, sent = spy_coalescer
        first, second, third = (payload(seq=i) for i in (1, 2, 3))
        coalescer.send("n2", first)
        coalescer.send("n2", second)
        coalescer.send("n2", third)
        cluster.settle()
        assert len(sent) == 1
        target, batch = sent[0]
        assert target == "n2"
        assert batch.op == "tm.batch"
        assert batch.body["service"] == "transaction_manager"
        assert batch.body["payloads"] == [first, second, third]
        assert coalescer.batches == 1
        assert coalescer.coalesced == 3

    def test_distinct_targets_stay_separate(self, spy_coalescer):
        cluster, coalescer, sent = spy_coalescer
        coalescer.send("n2", payload(seq=1))
        coalescer.send("n3", payload(seq=2))
        cluster.settle()
        assert {target for target, _ in sent} == {"n2", "n3"}
        assert all(message.op != "tm.batch" for _, message in sent)

    def test_later_instant_opens_a_new_batch(self, spy_coalescer):
        cluster, coalescer, sent = spy_coalescer
        coalescer.send("n2", payload(seq=1))
        cluster.settle()
        coalescer.send("n2", payload(seq=2))
        cluster.settle()
        assert len(sent) == 2

    def test_crash_drops_queued_datagrams(self, spy_coalescer):
        cluster, coalescer, sent = spy_coalescer
        coalescer.send("n2", payload(seq=1))
        coalescer.send("n2", payload(seq=2))
        cluster.node("n1").crash()
        cluster.settle()
        assert sent == []

    def test_batch_counts_land_in_metrics(self, spy_coalescer):
        cluster, coalescer, sent = spy_coalescer
        coalescer.send("n2", payload(seq=1))
        coalescer.send("n2", payload(seq=2))
        cluster.settle()
        metrics = cluster.metrics
        assert metrics.counter("n1", "txn.coalesced_datagrams").value == 2
        assert metrics.counter("n1", "txn.batch_datagrams").value == 1


class TestBatchDispatch:
    def test_handle_batch_dispatches_every_payload(self):
        """A ``tm.batch`` arriving at the TM unpacks to its handlers:
        two batched aborts are both acknowledged."""
        cluster = build(CommitConfig.grouped())
        tm = cluster.node("n1").tm
        replies = [Port(cluster.ctx, node=cluster.node("n1").node)
                   for _ in range(2)]
        inner = [Message(op="tm.abort",
                         body={"tid": TransactionID("n1", 900 + index)},
                         reply_to=reply)
                 for index, reply in enumerate(replies)]
        tm.port.send(Message(op="tm.batch",
                             body={"service": "transaction_manager",
                                   "from": "n1", "payloads": inner}))
        for reply in replies:
            body = cluster.engine.run_until(reply.receive()).body
            assert body.get("aborted")

    def test_nested_batch_payloads_are_ignored(self):
        """Defense in depth: a batch inside a batch does not recurse."""
        cluster = build(CommitConfig.grouped())
        tm = cluster.node("n1").tm
        nested = Message(op="tm.batch",
                         body={"service": "transaction_manager",
                               "from": "n1", "payloads": []})
        tm.port.send(Message(op="tm.batch",
                             body={"service": "transaction_manager",
                                   "from": "n1", "payloads": [nested]}))
        cluster.settle()  # nothing to assert beyond not recursing/crashing
