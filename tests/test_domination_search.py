"""The domination search's bounds and shortcuts.

``solvers._min_cover`` prunes a subtree once a lower bound on the picks it
still needs reaches the room left below the best cover so far, closes the
last pick (``room == 2``) with one scan, and skips a residual already expanded
at no larger size.  These skip only subtrees that cannot change the best cover;
the branching rule, child order and greedy seed are those of the search with
the static bound alone, so every (size, mask) must stay byte-identical to
``oracles.reference_min_cover``.  A SHA-256 of the covers of the 40-56 vertex
medium graphs, recorded before the last-pick scan and the transposition table,
pins the bytes there too.  A second one, recorded while the residual-gain bound
was still in place, pins the 60-64 vertex products and random graphs on which
the packing scan changes the pruning most.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from openpack import solvers
from openpack.graph import Graph, cycle, path, random_graph, random_tree
from openpack.harness import all_graphs_upto
from openpack.products import cartesian, direct
from openpack.solvers import domination_number, total_domination_number
from openpack.transforms import square, two_step

pytestmark = pytest.mark.usefixtures("search_deadline")


def closed_cover(g: Graph) -> list[int]:
    return [g.adj[v] | 1 << v for v in range(g.n)]


def covers(g: Graph) -> list[tuple[list[int], tuple[int, ...]]]:
    """The closed cover with the square's rows, and the open one with the
    two-step rows when gamma_t is defined: what ``_min_cover`` takes."""
    closed = [(closed_cover(g), square(g).adj)]
    return closed + ([(list(g.adj), two_step(g).adj)] if all(g.adj) else [])


def assert_matches_reference(g: Graph) -> None:
    for cover, reach in covers(g):
        assert solvers._min_cover(g.n, cover, reach) == \
            oracles.reference_min_cover(g.n, cover), (g.n, g.adj)


class TestCoverParity:
    def test_every_graph_upto_6(self):
        for g in all_graphs_upto(6):
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


class TestMediumCoverBytes:
    # SHA-256 of the 71 (size, mask) pairs on the 36 medium G(n, p, seed) graphs
    DIGEST = "5e26ec0f56eacb3f938d91a189d3e3017113fefd276e9761ee52efcde223544f"

    def test_medium_random_graphs(self):
        sha = hashlib.sha256()
        for n in (40, 48, 56):
            for p in (0.1, 0.2, 0.3, 0.5):
                for seed in range(3):
                    g = random_graph(n, p, seed)
                    for cover, reach in covers(g):
                        sha.update(repr(solvers._min_cover(g.n, cover, reach)).encode() + b"\n")
        assert sha.hexdigest() == self.DIGEST


class TestHardCoverBytes:
    # SHA-256 of the 10 (size, mask) pairs on C8 cart C8, P8 cart P8, C7 direct C9,
    # G(64, 0.16, 1) and G(60, 0.12, 2)
    DIGEST = "4f74c7d5e2a130c5ef8a6ceb092fa8ed6e42c7de031c6cfbea525f33d3fc4868"

    def test_products_and_dense_random_graphs(self):
        sha = hashlib.sha256()
        for g in (cartesian(cycle(8), cycle(8))[0], cartesian(path(8), path(8))[0],
                  direct(cycle(7), cycle(9))[0], random_graph(64, 0.16, 1),
                  random_graph(60, 0.12, 2)):
            for cover, reach in covers(g):
                sha.update(repr(solvers._min_cover(g.n, cover, reach)).encode() + b"\n")
        assert sha.hexdigest() == self.DIGEST
