"""Every test starts with empty engine memos: a fault that it plants reaches
every row that takes the faulty step, and what it computes, faulty or not,
is not left for the next test."""

import pytest

from helpers import empty_memos


@pytest.fixture(autouse=True)
def _empty_memos(monkeypatch):
    empty_memos(monkeypatch)
