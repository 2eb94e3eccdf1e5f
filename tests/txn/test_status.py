"""Tests for the per-transaction phase machine."""

import pytest

from repro.errors import TransactionError
from repro.txn.ids import TransactionID
from repro.txn.status import TransactionState, TxnPhase


def make_state():
    return TransactionState(TransactionID("n1", 1))


def test_initial_phase_is_active():
    assert make_state().phase is TxnPhase.ACTIVE


@pytest.mark.parametrize("path", [
    (TxnPhase.PREPARING, TxnPhase.PREPARED, TxnPhase.COMMITTED),
    (TxnPhase.PREPARING, TxnPhase.ABORTED),
    (TxnPhase.COMMITTED,),
    (TxnPhase.ABORTED,),
    (TxnPhase.PREPARING, TxnPhase.PREPARED, TxnPhase.ABORTED),
])
def test_legal_paths(path):
    state = make_state()
    for phase in path:
        state.advance(phase)
    assert state.phase is path[-1]


@pytest.mark.parametrize("first,second", [
    (TxnPhase.COMMITTED, TxnPhase.ABORTED),
    (TxnPhase.ABORTED, TxnPhase.COMMITTED),
    (TxnPhase.COMMITTED, TxnPhase.PREPARED),
    (TxnPhase.ABORTED, TxnPhase.PREPARING),
])
def test_terminal_states_are_final(first, second):
    state = make_state()
    state.advance(first)
    with pytest.raises(TransactionError):
        state.advance(second)


def test_prepared_cannot_return_to_active():
    state = make_state()
    state.advance(TxnPhase.PREPARED)
    with pytest.raises(TransactionError):
        state.advance(TxnPhase.PREPARING)


def test_terminal_property():
    assert TxnPhase.COMMITTED.terminal
    assert TxnPhase.ABORTED.terminal
    assert not TxnPhase.PREPARED.terminal
    assert not TxnPhase.ACTIVE.terminal
