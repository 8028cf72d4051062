"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the number of CPUs the process pool sees in this process's
    affinity set; no process is started by setting it."""

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return set_count
