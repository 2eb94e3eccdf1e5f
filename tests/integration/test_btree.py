"""End-to-end tests for the B-tree server (Section 4.4)."""

import random

import pytest

from repro import TabsCluster, TabsConfig
from repro.servers.btree import MAX_KEYS, META_PAGE, BTreeServer


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", BTreeServer.factory("dirs"))
    cluster.start()
    return cluster


@pytest.fixture
def env(cluster):
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("dirs"))

    def create(tid):
        yield from app.call(ref, "create_directory",
                            {"directory": "users"}, tid)

    cluster.run_transaction("n1", create)
    return cluster, app, ref


def call(app, ref, tid, op, **body):
    result = yield from app.call(ref, op, dict(body, directory="users"), tid)
    return result


def test_insert_and_lookup(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "insert", key="alice", value=30)
        result = yield from call(app, ref, tid, "lookup", key="alice")
        return result["value"]

    assert cluster.run_transaction("n1", body) == 30


def test_lookup_missing_key_fails(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "lookup", key="ghost")

    with pytest.raises(Exception, match="no key"):
        cluster.run_transaction("n1", body)


def test_duplicate_insert_rejected(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "insert", key="k", value=1)
        yield from call(app, ref, tid, "insert", key="k", value=2)

    with pytest.raises(Exception, match="duplicate"):
        cluster.run_transaction("n1", body)


def test_update_changes_value(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "insert", key="k", value="old")
        yield from call(app, ref, tid, "update", key="k", value="new")
        result = yield from call(app, ref, tid, "lookup", key="k")
        return result["value"]

    assert cluster.run_transaction("n1", body) == "new"


def test_delete_removes_key(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "insert", key="k", value=1)
        yield from call(app, ref, tid, "delete", key="k")

    cluster.run_transaction("n1", body)

    def check(tid):
        yield from call(app, ref, tid, "lookup", key="k")

    with pytest.raises(Exception, match="no key"):
        cluster.run_transaction("n1", check)


def test_many_inserts_force_splits_and_stay_sorted(env):
    cluster, app, ref = env
    keys = [f"key{i:03d}" for i in range(5 * MAX_KEYS)]

    def fill(tid):
        # Insert in an order that exercises splits on both flanks.
        for key in keys[::2] + keys[1::2]:
            yield from call(app, ref, tid, "insert", key=key, value=key)

    cluster.run_transaction("n1", fill)

    def scan(tid):
        result = yield from call(app, ref, tid, "scan")
        return result["entries"]

    entries = cluster.run_transaction("n1", scan)
    assert [key for key, _ in entries] == sorted(keys)


def test_deletes_force_merges(env):
    cluster, app, ref = env
    keys = [f"k{i:03d}" for i in range(4 * MAX_KEYS)]

    def fill(tid):
        for key in keys:
            yield from call(app, ref, tid, "insert", key=key, value=1)

    cluster.run_transaction("n1", fill)

    def drain(tid):
        for key in keys[:-3]:
            yield from call(app, ref, tid, "delete", key=key)
        result = yield from call(app, ref, tid, "scan")
        return result["entries"]

    entries = cluster.run_transaction("n1", drain)
    assert [key for key, _ in entries] == keys[-3:]


def test_an_underflow_borrows_from_a_left_sibling_with_keys_to_spare(env):
    """Nine ascending inserts split the root leaf into 4 + 5 keys; two
    more land on the left.  Deleting two keys on the right leaves it one
    short of half full while the left has two to spare: the right leaf
    takes the left's last key and the separator follows it."""
    cluster, app, ref = env
    tree = cluster.node("n1").servers["dirs"]
    borrowed = []
    borrow = tree._borrow_from_left

    def spy(node, index, child, left, *pages):
        borrowed.append((list(left["keys"]), list(child["keys"])))
        borrow(node, index, child, left, *pages)
    tree._borrow_from_left = spy
    keys = [f"k{i:02d}" for i in range(MAX_KEYS + 1)] + ["k00a", "k00b"]

    def fill(tid):
        for key in keys:
            yield from call(app, ref, tid, "insert", key=key, value=key)

    cluster.run_transaction("n1", fill)

    def shrink(tid):
        for key in ("k07", "k08"):
            yield from call(app, ref, tid, "delete", key=key)
        result = yield from call(app, ref, tid, "scan")
        return result["entries"]

    entries = cluster.run_transaction("n1", shrink)
    assert borrowed == [(["k00", "k00a", "k00b", "k01", "k02", "k03"],
                         ["k04", "k05", "k06"])]
    remaining = sorted(set(keys) - {"k07", "k08"})
    assert [key for key, _ in entries] == remaining

    def find(tid):
        result = yield from call(app, ref, tid, "lookup", key="k03")
        return result["value"]

    assert cluster.run_transaction("n1", find) == "k03"


def levels(cluster) -> int:
    """The height of the ``users`` tree, root to leaf."""
    tree = cluster.node("n1").servers["dirs"]

    def read(page):
        node = yield from tree.library.read_object(tree._page_oid(page))
        return node

    def walk():
        meta = yield from read(META_PAGE)
        node = yield from read(meta["directories"]["users"])
        height = 1
        while not node["leaf"]:
            node = yield from read(node["children"][0])
            height += 1
        return height

    return cluster.run_on("n1", walk())


def test_a_three_level_tree_shrinks_back_to_one_leaf(env):
    """Interior nodes split on the way up, and borrow and merge on the way
    down: every lookup and scan agrees with a dict throughout."""
    cluster, app, ref = env
    rng = random.Random(7)
    keys = [f"k{i:03d}" for i in range(160)]
    rng.shuffle(keys)
    model = {}

    def agrees():
        def body(tid):
            found = {}
            for key in model:
                result = yield from call(app, ref, tid, "lookup", key=key)
                found[key] = result["value"]
            whole = yield from call(app, ref, tid, "scan")
            part = yield from call(app, ref, tid, "scan",
                                   lo="k040", hi="k119")
            return found, whole["entries"], part["entries"]

        found, whole, part = cluster.run_transaction("n1", body)
        assert found == model
        assert [tuple(entry) for entry in whole] == sorted(model.items())
        assert [tuple(entry) for entry in part] == sorted(
            (key, value) for key, value in model.items()
            if "k040" <= key <= "k119")

    for start in range(0, len(keys), 20):
        batch = keys[start:start + 20]

        def fill(tid, batch=batch):
            for key in batch:
                yield from call(app, ref, tid, "insert", key=key,
                                value=key.upper())

        cluster.run_transaction("n1", fill)
        model.update((key, key.upper()) for key in batch)
        agrees()
    assert levels(cluster) >= 3

    rng.shuffle(keys)
    for start in range(0, len(keys) - 3, 20):
        batch = keys[start:start + 20][:len(keys) - 3 - start]

        def drain(tid, batch=batch):
            for key in batch:
                yield from call(app, ref, tid, "delete", key=key)

        cluster.run_transaction("n1", drain)
        for key in batch:
            del model[key]
        agrees()
    assert len(model) == 3
    assert levels(cluster) == 1


def test_range_scan(env):
    cluster, app, ref = env

    def body(tid):
        for key in "abcdef":
            yield from call(app, ref, tid, "insert", key=key, value=key)
        result = yield from call(app, ref, tid, "scan", lo="b", hi="d")
        return [key for key, _ in result["entries"]]

    assert cluster.run_transaction("n1", body) == ["b", "c", "d"]


def test_aborted_insert_rolls_back_tree_and_allocator(env):
    cluster, app, ref = env
    keys = [f"k{i}" for i in range(3 * MAX_KEYS)]

    def committed(tid):
        for key in keys[:4]:
            yield from call(app, ref, tid, "insert", key=key, value=1)

    cluster.run_transaction("n1", committed)

    def aborted():
        app2 = cluster.application("n1")
        tid = yield from app2.begin_transaction()
        for key in keys[4:]:
            result = yield from app2.call(
                ref, "insert", {"directory": "users", "key": key,
                                "value": 1}, tid)
            del result
        yield from app2.abort_transaction(tid)

    cluster.run_on("n1", aborted())

    def scan(tid):
        result = yield from call(app, ref, tid, "scan")
        return [key for key, _ in result["entries"]]

    assert cluster.run_transaction("n1", scan) == sorted(keys[:4])


def test_tree_survives_crash(env):
    cluster, app, ref = env
    keys = [f"key{i:02d}" for i in range(20)]

    def fill(tid):
        for key in keys:
            yield from call(app, ref, tid, "insert", key=key, value=key)

    cluster.run_transaction("n1", fill)
    cluster.crash_node("n1")
    cluster.restart_node("n1")

    app2 = cluster.application("n1")

    def scan(tid):
        ref2 = yield from app2.lookup_one("dirs")
        result = yield from app2.call(ref2, "scan",
                                      {"directory": "users"}, tid)
        return [key for key, _ in result["entries"]]

    assert cluster.run_transaction("n1", scan) == keys


def test_secondary_index(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "create_index", field="city")
        people = {"alice": {"city": "pgh"}, "bob": {"city": "nyc"},
                  "carol": {"city": "pgh"}}
        for key, value in people.items():
            yield from call(app, ref, tid, "insert", key=key, value=value)
        result = yield from call(app, ref, tid, "lookup_by_index",
                                 field="city", key="pgh")
        return sorted(result["primary_keys"])

    assert cluster.run_transaction("n1", body) == ["alice", "carol"]


def test_secondary_index_follows_update_and_delete(env):
    cluster, app, ref = env

    def body(tid):
        yield from call(app, ref, tid, "create_index", field="city")
        yield from call(app, ref, tid, "insert", key="alice",
                        value={"city": "pgh"})
        yield from call(app, ref, tid, "update", key="alice",
                        value={"city": "nyc"})
        pgh = yield from call(app, ref, tid, "lookup_by_index",
                              field="city", key="pgh")
        nyc = yield from call(app, ref, tid, "lookup_by_index",
                              field="city", key="nyc")
        yield from call(app, ref, tid, "delete", key="alice")
        gone = yield from call(app, ref, tid, "lookup_by_index",
                               field="city", key="nyc")
        return (pgh["primary_keys"], nyc["primary_keys"],
                gone["primary_keys"])

    assert cluster.run_transaction("n1", body) == ([], ["alice"], [])


def test_two_directories_are_independent(cluster):
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("dirs"))

    def body(tid):
        for directory in ("left", "right"):
            yield from app.call(ref, "create_directory",
                                {"directory": directory}, tid)
        yield from app.call(ref, "insert", {"directory": "left",
                                            "key": "k", "value": "L"}, tid)
        yield from app.call(ref, "insert", {"directory": "right",
                                            "key": "k", "value": "R"}, tid)
        left = yield from app.call(ref, "lookup",
                                   {"directory": "left", "key": "k"}, tid)
        right = yield from app.call(ref, "lookup",
                                    {"directory": "right", "key": "k"}, tid)
        return left["value"], right["value"]

    assert cluster.run_transaction("n1", body) == ("L", "R")
