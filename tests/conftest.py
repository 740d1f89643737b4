"""Every test starts with empty engine memos: a fault that it plants reaches
every row that takes the faulty step, and what it computes, faulty or not,
is not left for the next test.  No test leaves this process pinned to fewer
CPUs, as `verify --jobs 2` pins its own process while it runs checks."""

import os

import pytest

from helpers import empty_memos


@pytest.fixture(autouse=True)
def _empty_memos(monkeypatch):
    empty_memos(monkeypatch)


@pytest.fixture(autouse=True)
def _same_cpu_mask():
    mask = getattr(os, "sched_getaffinity", lambda pid: None)(0)
    yield
    assert getattr(os, "sched_getaffinity", lambda pid: None)(0) == mask, "the test left this process pinned"
