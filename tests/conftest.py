import os
import tempfile
import threading

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests run the same examples every time and keep no example database.
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


def pytest_configure(config):
    # Hypothesis's other on-disk caches go to a temporary directory removed at
    # the end of the run, so a test run leaves no .hypothesis/ in the checkout.
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def recording_start(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


@pytest.fixture
def allow_cpus(monkeypatch):
    """Sets how many CPUs the process's affinity mask reports, which decides
    whether the library may start a second thread."""

    def allow(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return allow
