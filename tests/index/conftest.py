"""Fixtures shared by the AllTables build suites."""

import pytest


@pytest.fixture
def pooled(monkeypatch):
    """Make ``IndexConfig(workers=N)`` spawn a real process pool even on
    a single-CPU runner: the worker count is clamped to
    ``_available_cpus()``, so report plenty."""
    monkeypatch.setattr("repro.index.alltables._available_cpus", lambda: 64)
