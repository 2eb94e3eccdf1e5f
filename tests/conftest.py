"""Checks every test in the suite runs under.

Each record a log store makes durable is round-tripped through the WAL
codec at that instant (:mod:`tests.wire_form`); a test whose run made a
record durable that fails the round trip fails at teardown.
"""

import pytest

from tests import wire_form

wire_form.install()


@pytest.fixture(autouse=True)
def every_durable_record_round_trips():
    yield
    failed = wire_form.take_failures()
    if failed:
        pytest.fail(f"{len(failed)} durable log record(s) failed the wire "
                    "round trip, first: " + failed[0], pytrace=False)
