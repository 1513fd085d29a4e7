from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import openpack
from openpack import kernel_backend
from openpack.graph import Graph, pair_order

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_report_header(config):
    return f"openpack kernel backend: {kernel_backend()}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
    code = draw(st.integers(0, (1 << nbits) - 1))
    adj = [0] * n
    for t, (u, v) in enumerate(pair_order(n)):
        if code >> t & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, adj)


@st.composite
def graphs_with_subset(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n, max_n))
    mask = draw(st.integers(0, (1 << g.n) - 1))
    return g, mask
