"""Fixtures shared by the test modules."""

import pytest

import cyclolog.scans as scans


@pytest.fixture
def fork_small_scans(monkeypatch):
    """A scan asked for two or more workers forks them at any q from 5, as
    q = 19 does: every complementary pair repays a worker, so the worker
    count is capped by the request and the usable CPUs alone."""
    monkeypatch.setattr(scans, "MIN_PAIRS_PER_WORKER", 1)
