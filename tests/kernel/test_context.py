"""Unit tests for the simulation context's cost accounting."""

from repro.kernel.context import SimContext
from repro.kernel.costs import ACHIEVABLE_1985, MEASURED_1985, Phase, Primitive
from repro.sim import Process


def test_charge_records_and_delays():
    ctx = SimContext()
    ctx.meter.phase = Phase.PRE_COMMIT
    delay = ctx.charge(Primitive.DATAGRAM)
    assert delay == 25.0
    assert ctx.meter.count(Primitive.DATAGRAM, Phase.PRE_COMMIT) == 1

    def body():
        yield ctx.charge(Primitive.DATAGRAM)

    ctx.engine.run_until(Process(ctx.engine, body()))
    assert ctx.engine.now == 25.0


def test_cpu_charge_accrues_to_component():
    ctx = SimContext()
    ctx.cpu("TM", 12.0)
    ctx.cpu("TM", 24.0)
    ctx.cpu("RM", 5.0)
    assert ctx.meter.total_cpu(("TM",)) == 36.0
    assert ctx.meter.total_cpu() == 41.0

    # Each charge is a delay the process that yields it sleeps;
    # concurrent processes overlap, so the clock advances to the longest
    # (a process serializes its charges by yielding one at a time).
    def body(component, time_ms):
        yield ctx.cpu(component, time_ms)

    for component, time_ms in (("TM", 12.0), ("TM", 24.0), ("RM", 5.0)):
        Process(ctx.engine, body(component, time_ms))
    ctx.engine.run()
    assert ctx.engine.now == 24.0
    assert ctx.meter.total_cpu() == 82.0


def test_profile_swap_changes_prices():
    measured = SimContext(profile=MEASURED_1985)
    achievable = SimContext(profile=ACHIEVABLE_1985)
    assert measured.charge(Primitive.STABLE_STORAGE_WRITE) == 79.0
    assert achievable.charge(Primitive.STABLE_STORAGE_WRITE) == 32.0


def test_seeded_random_is_deterministic():
    first = SimContext(seed=7)
    second = SimContext(seed=7)
    assert [first.random.random() for _ in range(5)] == \
        [second.random.random() for _ in range(5)]


def test_merged_architecture_defaults_off():
    assert SimContext().merged_architecture is False
