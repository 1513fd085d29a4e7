from __future__ import annotations

from hypothesis import strategies as st

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
