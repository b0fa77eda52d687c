"""Shared fixtures."""

import pytest

from staircase_lab import _budget


@pytest.fixture()
def fresh_ledger(monkeypatch):
    """Installs an empty memory ledger on each call and returns it; the
    process's own ledger, with its kept tables, comes back after the
    test."""

    def install():
        ledger = _budget._Ledger()
        monkeypatch.setattr(_budget, "_ledger", ledger)
        return ledger

    return install
