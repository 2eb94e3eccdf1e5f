"""End-to-end tests for the I/O server's transaction-based display model."""

import pytest

from repro import TabsCluster, TabsConfig
from repro.servers.io_server import IOServer


@pytest.fixture
def cluster():
    cluster = TabsCluster(TabsConfig())
    cluster.add_node("n1")
    cluster.add_server("n1", IOServer.factory("display"))
    cluster.start()
    return cluster


@pytest.fixture
def env(cluster):
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("display"))

    def obtain(tid):
        result = yield from app.call(ref, "obtain_io_area", {}, tid)
        return result["area"]

    area = cluster.run_transaction("n1", obtain)
    return cluster, app, ref, area


def render(cluster, app, ref, area):
    def body(tid):
        result = yield from app.call(ref, "render_area", {"area": area}, tid)
        return result["lines"]
    return cluster.run_transaction("n1", body)


def test_committed_output_renders_black(env):
    cluster, app, ref, area = env

    def body(tid):
        yield from app.call(ref, "write_to_area",
                            {"area": area, "data": "deposited $35"}, tid)

    cluster.run_transaction("n1", body)
    assert render(cluster, app, ref, area) == ["  deposited $35"]


def test_in_progress_output_renders_grey(env):
    cluster, app, ref, area = env
    from repro.sim import Timeout

    def slow():
        app2 = cluster.application("n1")
        tid = yield from app2.begin_transaction()
        yield from app2.call(ref, "write_to_area",
                             {"area": area, "data": "pending..."}, tid)
        yield Timeout(cluster.engine, 10_000.0)
        yield from app2.end_transaction(tid)

    writer = cluster.spawn_on("n1", slow())
    cluster.engine.run(until=cluster.engine.now + 2_000.0)
    assert render(cluster, app, ref, area) == ["~ pending..."]
    cluster.engine.run_until(writer)
    assert render(cluster, app, ref, area) == ["  pending..."]


def test_aborted_output_is_struck_through_not_erased(env):
    cluster, app, ref, area = env

    def aborted():
        app2 = cluster.application("n1")
        tid = yield from app2.begin_transaction()
        yield from app2.call(ref, "write_to_area",
                             {"area": area, "data": "withdraw $80"}, tid)
        yield from app2.abort_transaction(tid)

    cluster.run_on("n1", aborted())
    lines = render(cluster, app, ref, area)
    assert len(lines) == 1
    assert "-" in lines[0]          # struck through
    assert "withdraw" in lines[0]   # but still legible


def test_output_survives_client_abort_because_io_is_not_failure_atomic(env):
    cluster, app, ref, area = env

    def aborted():
        app2 = cluster.application("n1")
        tid = yield from app2.begin_transaction()
        yield from app2.call(ref, "write_to_area",
                             {"area": area, "data": "tentative"}, tid)
        yield from app2.abort_transaction(tid)

    cluster.run_on("n1", aborted())
    # The characters are still there (permanent), only re-styled.
    assert len(render(cluster, app, ref, area)) == 1


def test_read_line_echoes_boxed_input(env):
    cluster, app, ref, area = env

    def feed(tid):
        yield from app.call(ref, "feed_input",
                            {"area": area, "data": "35"}, tid)

    cluster.run_transaction("n1", feed)

    def body(tid):
        result = yield from app.call(ref, "read_line_from_area",
                                     {"area": area}, tid)
        return result["data"]

    assert cluster.run_transaction("n1", body) == "35"
    lines = render(cluster, app, ref, area)
    assert any("[35]" in line for line in lines)


def test_crash_restores_screen_with_interrupted_txn_struck(env):
    """Figure 4-1's area two: the node failed during the transaction,
    causing it to abort; the restored screen strikes its output through."""
    cluster, app, ref, area = env

    def committed(tid):
        yield from app.call(ref, "write_to_area",
                            {"area": area, "data": "deposit ok"}, tid)

    cluster.run_transaction("n1", committed)

    def in_flight():
        app2 = cluster.application("n1")
        tid = yield from app2.begin_transaction()
        yield from app2.call(ref, "write_to_area",
                             {"area": area, "data": "withdraw $80"}, tid)
        from repro.sim import Timeout
        yield Timeout(cluster.engine, 60_000.0)

    cluster.spawn_on("n1", in_flight())
    cluster.engine.run(until=cluster.engine.now + 2_000.0)

    cluster.crash_node("n1")
    cluster.restart_node("n1")

    app3 = cluster.application("n1")

    def rerender(tid):
        ref2 = yield from app3.lookup_one("display")
        result = yield from app3.call(ref2, "render_area",
                                      {"area": area}, tid)
        return result["lines"]

    lines = cluster.run_transaction("n1", rerender)
    assert lines[0] == "  deposit ok"          # black: really happened
    assert "-" in lines[1] and "withdraw" in lines[1]  # struck through


def test_multiple_areas_are_independent(cluster):
    app = cluster.application("n1")
    ref = cluster.run_on("n1", app.lookup_one("display"))

    def two_areas(tid):
        first = yield from app.call(ref, "obtain_io_area", {}, tid)
        second = yield from app.call(ref, "obtain_io_area", {}, tid)
        return first["area"], second["area"]

    area1, area2 = cluster.run_transaction("n1", two_areas)
    assert area1 != area2

    def write(area, text):
        def body(tid):
            yield from app.call(ref, "write_to_area",
                                {"area": area, "data": text}, tid)
        return body

    cluster.run_transaction("n1", write(area1, "one"))
    cluster.run_transaction("n1", write(area2, "two"))
    assert render(cluster, app, ref, area1) == ["  one"]
    assert render(cluster, app, ref, area2) == ["  two"]


def test_a_read_parked_before_its_input_is_woken_by_the_feed(env):
    """ReadLineFromArea with nothing typed yet waits for the keyboard;
    the input fed meanwhile is the line it returns and echoes boxed."""
    cluster, app, ref, area = env

    def reader(tid):
        result = yield from app.call(ref, "read_line_from_area",
                                     {"area": area}, tid)
        return result["data"]

    read = cluster.spawn_on("n1", app.run_transaction(reader))
    cluster.engine.run(until=cluster.engine.now + 2_000.0)
    assert read.alive  # parked: no input yet

    def feed(tid):
        yield from app.call(ref, "feed_input",
                            {"area": area, "data": "42"}, tid)

    cluster.run_transaction("n1", feed)
    cluster.engine.run_until(read)
    assert read.result() == "42"
    assert any("[42]" in line for line in render(cluster, app, ref, area))


def test_a_read_with_no_input_gives_up_at_its_deadline(env):
    cluster, app, ref, area = env
    from repro.errors import ServerError

    def reader(tid):
        yield from app.call(ref, "read_line_from_area",
                            {"area": area, "max_wait_ms": 500.0}, tid)

    started = cluster.engine.now
    with pytest.raises(ServerError, match="no input arrived"):
        cluster.run_transaction("n1", reader)
    assert cluster.engine.now - started >= 500.0


def test_destroying_an_area_empties_it(env):
    cluster, app, ref, area = env

    def write(tid):
        yield from app.call(ref, "write_to_area",
                            {"area": area, "data": "gone soon"}, tid)

    cluster.run_transaction("n1", write)
    assert render(cluster, app, ref, area) == ["  gone soon"]

    def destroy(tid):
        yield from app.call(ref, "destroy_io_area", {"area": area}, tid)

    cluster.run_transaction("n1", destroy)
    assert render(cluster, app, ref, area) == []
