from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import openpack
from openpack.graph import _from_code

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []

# wall-time limit per test under the search_deadline fixture
SEARCH_DEADLINE_S = 60


class SearchDeadlineExceeded(BaseException):
    """A test under ``search_deadline`` ran out of time.  Not an Exception, so
    hypothesis re-raises it at once instead of shrinking on."""


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def search_deadline():
    """Fail a test whose search has not ended after SEARCH_DEADLINE_S seconds
    of wall time, instead of hanging the suite."""
    def expire(signum, frame):
        raise SearchDeadlineExceeded(f"test still running after {SEARCH_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SEARCH_DEADLINE_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    try:
        return (yield)
    except SearchDeadlineExceeded as exc:
        # report the message alone: the traceback of an exception raised by a
        # signal mid-search can hold a frame with no line number, on which
        # pytest's traceback formatting fails and ends the whole session
        raise pytest.fail.Exception(str(exc), pytrace=False) from None


def run_python(code: str, *flags: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this openpack; a hang
    fails with TimeoutExpired instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(openpack.__file__).parents[1]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    return _from_code(n, draw(st.integers(0, (1 << nbits) - 1)))


@st.composite
def graphs_with_subset(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n, max_n))
    mask = draw(st.integers(0, (1 << g.n) - 1))
    return g, mask
