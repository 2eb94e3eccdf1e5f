"""Commit-time footprint validation, unit and end-to-end.

The available-copies rule (RepCRec): a site failure erases its
in-memory concurrency-control state, so any transaction that *touched*
a since-failed replica -- wrote to it, or merely read from it -- must
abort at commit, even if the replica looks healthy again by then.  The
end-to-end tests drive the detector events straight into the
availability view mid-transaction and assert the Transaction Manager
refuses the commit.
"""

from tests.replication.conftest import build_replicated

from repro.app.library import run_transaction
from repro.replication import AvailabilityView, PlacementMap, validate_footprint
from repro.replication.router import ReplicatedApp


def make_view(down=(), counts=None):
    view = AvailabilityView("n0")
    view._down = set(down)
    view._fail_counts = dict(counts or {})
    return view


PLACEMENT = PlacementMap({"a": ("n0", "n1"), "b": ("n1", "n2")})


class TestValidateFootprint:
    def test_empty_footprint_commits(self):
        assert validate_footprint(make_view(), PLACEMENT,
                                  {"written": {}, "keyspaces": {}}) is None

    def test_written_replica_down_aborts(self):
        view = make_view(down={"n1"}, counts={"n1": 1})
        reason = validate_footprint(view, PLACEMENT, {
            "written": {"n1": 0}, "keyspaces": {"b": ["n1", "n2"]}})
        assert reason is not None and "n1" in reason

    def test_written_replica_restarted_aborts(self):
        """Available again, but the fail count moved: its locks and
        buffered writes are gone."""
        view = make_view(counts={"n1": 2})
        reason = validate_footprint(view, PLACEMENT, {
            "written": {"n1": 1}, "keyspaces": {"b": ["n1", "n2"]}})
        assert reason is not None and "restarted" in reason

    def test_stable_replicas_commit(self):
        view = make_view(counts={"n1": 3})
        assert validate_footprint(view, PLACEMENT, {
            "written": {"n1": 3, "n2": 0},
            "keyspaces": {"b": ["n1", "n2"]}}) is None

    def test_recovered_copy_missing_a_write_aborts(self):
        """Rule 2, the post-recovery write barrier: a replica that is up
        *now* but absent from the write set recovered mid-transaction;
        committing would strand it stale."""
        view = make_view()
        reason = validate_footprint(view, PLACEMENT, {
            "written": {"n1": 0}, "keyspaces": {"b": ["n1"]}})
        assert reason is not None and "n2" in reason

    def test_still_down_copy_missing_a_write_commits(self):
        view = make_view(down={"n2"}, counts={"n2": 1})
        assert validate_footprint(view, PLACEMENT, {
            "written": {"n1": 0}, "keyspaces": {"b": ["n1"]}}) is None

    def test_read_replica_down_aborts(self):
        """Rule 1 covers plain reads: the failed site's read lock is
        erased, so a writer committing at the surviving copies would
        give this reader read skew."""
        view = make_view(down={"n1"}, counts={"n1": 1})
        reason = validate_footprint(view, PLACEMENT, {
            "written": {}, "read": {"n1": 0}, "keyspaces": {}})
        assert reason is not None and "read" in reason

    def test_read_replica_restarted_aborts(self):
        view = make_view(counts={"n1": 2})
        reason = validate_footprint(view, PLACEMENT, {
            "written": {}, "read": {"n1": 1}, "keyspaces": {}})
        assert reason is not None and "restarted" in reason

    def test_stable_read_commits(self):
        view = make_view(counts={"n1": 3})
        assert validate_footprint(view, PLACEMENT, {
            "written": {}, "read": {"n1": 3, "n2": 0},
            "keyspaces": {}}) is None

    def test_reads_do_not_trigger_the_write_barrier(self):
        """Rule 2 is about stranding stale *copies*; a read-only
        key-space has no missed write, so an up copy that served
        nothing is irrelevant."""
        view = make_view()
        assert validate_footprint(view, PLACEMENT, {
            "written": {}, "read": {"n1": 0}, "keyspaces": {}}) is None


def flap_transaction(cluster, topology, events):
    """One replicated account update with detector ``events`` injected
    between the write fan-out and the commit attempt."""
    rapp = ReplicatedApp(cluster, "bank0")
    view = cluster.node("bank0").replication.view

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from rapp.write_all(topology.account_server(0),
                                  "add_to_balance",
                                  {"row": 1, "amount": 7}, tid)
        for event in events:
            view.observe(0.0, "bank0", event, "bank1")
        committed = yield from rapp.end_transaction(tid)
        return committed

    return cluster.run_on("bank0", txn())


def read_flap_transaction(cluster, topology, events):
    """A read-only transaction whose single read is served by bank1
    (branch 1's key-spaces anchor there), with detector ``events``
    injected between the read and the commit attempt."""
    rapp = ReplicatedApp(cluster, "bank0")
    view = cluster.node("bank0").replication.view
    keyspace = topology.account_server(1)
    assert cluster.placement.replicas(keyspace)[0] == "bank1"

    def txn():
        tid = yield from rapp.begin_transaction()
        yield from rapp.read(keyspace, "get_balance", {"row": 1}, tid)
        for event in events:
            view.observe(0.0, "bank0", event, "bank1")
        committed = yield from rapp.end_transaction(tid)
        return committed

    return cluster.run_on("bank0", txn())


def validation_aborts(cluster) -> int:
    return cluster.metrics.counter(
        "bank0", "replication.validation_abort").value


class TestCommitTimeValidation:
    def test_suspicion_flap_aborts_open_transaction(self):
        """failed -> recovered: the replica answers probes again by
        commit time, but the transaction wrote through the flap -- the
        TM must still abort it."""
        cluster, topology = build_replicated(seed=41)
        committed = flap_transaction(cluster, topology,
                                     ["suspect", "recovered"])
        assert committed is False
        assert validation_aborts(cluster) == 1
        # The flap is history: a fresh transaction records the new fail
        # count and commits.
        rapp = ReplicatedApp(cluster, "bank0")

        def retry(tid):
            yield from rapp.write_all(topology.account_server(0),
                                      "add_to_balance",
                                      {"row": 1, "amount": 7}, tid)

        cluster.run_on("bank0", run_transaction(rapp, retry))
        assert validation_aborts(cluster) == 1

    def test_full_flap_failed_recovered_failed_aborts(self):
        cluster, topology = build_replicated(seed=43)
        committed = flap_transaction(
            cluster, topology, ["suspect", "recovered", "suspect"])
        assert committed is False
        assert validation_aborts(cluster) == 1

    def test_restart_observed_mid_transaction_aborts(self):
        """The peer was never suspected; a higher-epoch pong betrays a
        crash-and-return while the transaction was open."""
        cluster, topology = build_replicated(seed=47)
        committed = flap_transaction(cluster, topology,
                                     ["restart-observed"])
        assert committed is False
        assert validation_aborts(cluster) == 1

    def test_quiet_detector_commits(self):
        cluster, topology = build_replicated(seed=53)
        assert flap_transaction(cluster, topology, []) is True
        assert validation_aborts(cluster) == 0

    def test_read_from_since_failed_replica_aborts(self):
        """The RepCRec rule for reads: the serving site failed before
        commit, its read lock is gone, so a concurrent writer could
        have committed around this reader -- read skew unless the
        reader aborts too."""
        cluster, topology = build_replicated(seed=59)
        committed = read_flap_transaction(cluster, topology, ["suspect"])
        assert committed is False
        assert validation_aborts(cluster) == 1

    def test_read_through_flap_aborts(self):
        """Healthy again by commit time, but the fail count moved while
        the transaction held its read."""
        cluster, topology = build_replicated(seed=61)
        committed = read_flap_transaction(cluster, topology,
                                          ["suspect", "recovered"])
        assert committed is False
        assert validation_aborts(cluster) == 1

    def test_quiet_detector_read_commits(self):
        cluster, topology = build_replicated(seed=67)
        assert read_flap_transaction(cluster, topology, []) is True
        assert validation_aborts(cluster) == 0
