"""The domination search's bounds, shortcuts and child order.

``solvers._min_cover`` prunes a subtree once a lower bound on the picks it
still needs reaches the room left below the best cover so far, closes the
last pick (``room == 2``) with one scan, and skips a residual already expanded
at no larger size.  It tries the branching vertex's options by how many
uncovered vertices each covers, most first, so which minimum cover it returns
is its own; the tests here hold every result to optimality instead: the mask
is a cover, checked with the cover rows directly, its popcount is the size,
and the size is ``oracles.reference_min_cover``'s (and, for n <= 6, the brute
force's).  Two SHA-256 digests per corpus pin the 40-56 vertex medium graphs
and the 60-64 vertex products and random graphs on which the packing scan
changes the pruning most: one of the sizes alone, recorded before the child
order changed, and one of the (size, mask) pairs.
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
from openpack.solvers import domination_number, full_report, total_domination_number
from openpack.transforms import square, two_step

pytestmark = pytest.mark.usefixtures("search_deadline")


def closed_cover(g: Graph) -> list[int]:
    return [g.adj[v] | 1 << v for v in range(g.n)]


def covers(g: Graph) -> list[tuple[list[int], tuple[int, ...]]]:
    """The closed cover with the square's rows, and the open one with the
    two-step rows when gamma_t is defined: what ``_min_cover`` takes."""
    closed = [(closed_cover(g), square(g).adj)]
    return closed + ([(list(g.adj), two_step(g).adj)] if all(g.adj) else [])


def assert_minimum_cover(n: int, cover: list[int], found: tuple[int, int]) -> int:
    """``found`` is (size, mask) of a minimum cover: every vertex meets the
    mask through its own row (``cover[v]`` is also who covers v), the mask has
    ``size`` members, and the reference search finds no smaller one."""
    size, mask = found
    assert not mask >> n and all(row & mask for row in cover), (n, cover, found)
    assert mask.bit_count() == size, (n, cover, found)
    assert size == oracles.reference_min_cover(n, cover)[0], (n, cover, found)
    return size


def assert_minimum(g: Graph) -> list[int]:
    """Each cover of ``covers(g)`` searched and checked; the sizes."""
    return [assert_minimum_cover(g.n, cover, solvers._min_cover(g.n, cover, reach))
            for cover, reach in covers(g)]


class TestCoverParity:
    def test_every_graph_upto_6(self):
        for g in all_graphs_upto(6):
            sizes = assert_minimum(g)
            brute = [oracles.brute_domination(g), oracles.brute_total_domination(g)]
            assert sizes == brute[:len(sizes)], (g.n, g.adj)

    @settings(max_examples=60, deadline=None)
    @given(graphs(7, 20))
    def test_random_graphs(self, g):
        assert_minimum(g)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(10, 40), seed=st.integers(0, 10 ** 6))
    def test_random_trees(self, n, seed):
        assert_minimum(random_tree(n, seed))

    @pytest.mark.parametrize("g, which, expected", [
        (random_graph(23, 0.25, 985140), 0, (5, 66856)),
        (random_graph(27, 0.18, 777820), 1, (6, 12586002)),
    ], ids=["gamma", "gamma_t"])
    def test_complete_cover_leaf(self, g, which, expected):
        # inputs on which the search reaches a complete cover (the
        # ``if not uncovered`` leaf) that beats the best so far by 2 or more
        cover, reach = covers(g)[which]
        found = solvers._min_cover(g.n, cover, reach)
        assert found == expected
        assert_minimum_cover(g.n, cover, found)


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
        assert_minimum_cover(g.n, cover(g), (size, cert.bits))


def cover_digests(corpus) -> tuple[str, str]:
    """SHA-256 of the sizes alone, and of the (size, mask) pairs, of every
    cover of ``covers(g)`` over the corpus."""
    sizes, pairs = hashlib.sha256(), hashlib.sha256()
    for g in corpus:
        for cover, reach in covers(g):
            found = solvers._min_cover(g.n, cover, reach)
            sizes.update(repr(found[0]).encode() + b"\n")
            pairs.update(repr(found).encode() + b"\n")
    return sizes.hexdigest(), pairs.hexdigest()


def assert_every_floor(g: Graph) -> None:
    """Each cover of ``covers(g)`` searched with every floor from 1 up to its
    minimum gives the (size, mask) of the search with no floor, which the
    digests pin."""
    for cover, reach in covers(g):
        found = solvers._min_cover(g.n, cover, reach)
        for floor in range(1, found[0] + 1):
            assert solvers._min_cover(g.n, cover, reach, floor) == found, (g.n, g.adj, floor)


def medium_graphs():
    return (random_graph(n, p, seed) for n in (40, 48, 56)
            for p in (0.1, 0.2, 0.3, 0.5) for seed in range(3))


def hard_graphs():
    return (cartesian(cycle(8), cycle(8))[0], cartesian(path(8), path(8))[0],
            direct(cycle(7), cycle(9))[0], random_graph(64, 0.16, 1),
            random_graph(60, 0.12, 2))


class TestMediumCoverBytes:
    # SHA-256 of the 71 sizes, and of the 71 (size, mask) pairs, on the 36
    # medium G(n, p, seed) graphs
    SIZES = "54ec108a5b04074c25d8e4f0f323f4ca748e7f1aee9e0392272a438566aaebfb"
    DIGEST = "69fed8a878b30609fc6ae407a491cf921a593be38c4ecb5853e37c058066653a"

    def test_medium_random_graphs(self):
        assert cover_digests(medium_graphs()) == (self.SIZES, self.DIGEST)

    def test_every_floor_up_to_the_minimum(self):
        for g in medium_graphs():
            assert_every_floor(g)


class TestHardCoverBytes:
    # SHA-256 of the 10 sizes, and of the 10 (size, mask) pairs, on C8 cart C8,
    # P8 cart P8, C7 direct C9, G(64, 0.16, 1) and G(60, 0.12, 2)
    SIZES = "3f756e36b3d9c0e38d9ed72847add716e386af7bc4b3e4c36e3bdfe19ba9d0a0"
    DIGEST = "8e2b5c317cefdbf02ed6fe8fca28a7db8490e8e980eac948207c6c5f069c07b3"

    def test_products_and_dense_random_graphs(self):
        assert cover_digests(hard_graphs()) == (self.SIZES, self.DIGEST)

    # one test per graph: every floor below a minimum repeats the whole search
    @pytest.mark.parametrize("index", range(5), ids=["C8xC8", "P8xP8", "C7xC9", "G64", "G60"])
    def test_every_floor_up_to_the_minimum(self, index):
        assert_every_floor(list(hard_graphs())[index])


class TestGammaFloor:
    """``GraphFacts.gamma_t`` searches with gamma as its floor when gamma is
    already solved, as it is in ``full_report``; the result must be the one a
    fresh search, with no floor, returns."""

    @staticmethod
    def assert_floored_equals_fresh(g: Graph) -> None:
        report = full_report(g)
        if "gamma_t" in report.values:
            floored = (report.values["gamma_t"], report.certificates["gamma_t"])
            assert floored == total_domination_number(g), (g.n, g.adj)

    def test_every_graph_upto_6(self):
        for g in all_graphs_upto(6):
            self.assert_floored_equals_fresh(g)

    def test_medium_random_graphs(self):
        for g in medium_graphs():
            self.assert_floored_equals_fresh(g)

    def test_floor_is_gamma_once_solved(self, monkeypatch):
        search, floors = solvers._min_cover, []

        def spy(n, cover, reach, floor=0):
            floors.append(floor)
            return search(n, cover, reach, floor)

        monkeypatch.setattr(solvers, "_min_cover", spy)
        g = random_graph(20, 0.2, 3)
        solvers.GraphFacts(g).gamma_t  # gamma unsolved: no floor
        facts = solvers.GraphFacts(g)
        facts.gamma
        facts.gamma_t
        assert floors == [0, 0, facts.gamma[0]] and facts.gamma[0] > 0
