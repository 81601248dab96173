import multiprocessing
import os
import tempfile
import threading
import time

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


def _timed_suite(name):
    from spectral_ops import verify

    start = time.perf_counter()
    rows = verify.run_suites([name])
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def verify_rows():
    """{suite: (rows, wall seconds)} from one `verify.run_suites` call per suite,
    in SUITES order, made once per session: verify's rows are the oracle and
    invariant checks, and the tests read them here instead of walking their
    grids again.  The suites run in a spawned child, so the rows come from the
    library as shipped whatever a test patches, and their allocations leave
    this process's heap as it was: run in-process, they left it in a state
    where some of test_acceptance's test_07 FFT samples took about 250
    fresh-page faults each, which moved its m31/m3 ratio towards the bound."""
    from spectral_ops import verify

    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return dict(zip(verify.SUITES, pool.map(_timed_suite, verify.SUITES)))


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
