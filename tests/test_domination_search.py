"""The domination search's packing and residual-gain bounds.

``solvers._min_cover`` prunes a subtree once a lower bound on the picks it
still needs reaches the room left below the best cover so far.  The bounds
decide only when to prune; the branching rule, child order and greedy seed
are those of the search with the static bound alone, so every (size, mask)
must stay byte-identical to ``oracles.reference_min_cover``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from openpack import solvers
from openpack.graph import Graph, random_graph, random_tree
from openpack.harness import all_graphs_upto
from openpack.solvers import domination_number, total_domination_number


def closed_cover(g: Graph) -> list[int]:
    return [g.adj[v] | 1 << v for v in range(g.n)]


def assert_matches_reference(g: Graph) -> None:
    covers = [closed_cover(g)] + ([list(g.adj)] if all(g.adj) else [])
    for cover in covers:
        assert solvers._min_cover(g.n, cover) == \
            oracles.reference_min_cover(g.n, cover), (g.n, g.adj)


class TestCoverParity:
    def test_every_graph_upto_5(self):
        for g in all_graphs_upto(5):
            assert_matches_reference(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs(7, 20))
    def test_random_graphs(self, g):
        assert_matches_reference(g)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(10, 40), seed=st.integers(0, 10 ** 6))
    def test_random_trees(self, n, seed):
        assert_matches_reference(random_tree(n, seed))


class TestFormerlySlowInstances:
    @pytest.mark.parametrize("solve, cover", [
        (domination_number, closed_cover),
        (total_domination_number, lambda g: list(g.adj)),
    ], ids=["gamma", "gamma_t"])
    def test_g_56_01_6(self, solve, cover):
        # the search with the static bound alone takes about ten times longer
        g = random_graph(56, 0.1, 6)
        size, cert = solve(g)
        assert size == 11
        assert (size, cert.bits) == oracles.reference_min_cover(g.n, cover(g))
