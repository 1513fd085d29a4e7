"""Graphs are validated once, where they enter.

``Graph(n, adj)`` and the parsers check their input.  The builders whose rows
are valid by construction skip the per-edge walk through ``graph._trusted``;
these tests hold every one of them to the same validator, ``graph._validate``,
and check that each still refuses a bad order with the usual message.
Unpickling restores a graph's slots without running ``Graph.__init__``, so it
skips the validator too (pickle protocol 2 or later).
"""

import pickle
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from openpack import graph
from openpack.constructions import ng_extremal
from openpack.formats import parse_graph6, to_graph6
from openpack.graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    _validate,
    complement,
    complete,
    complete_bipartite,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    random_tree,
    tree_from_pruefer,
)
from openpack.products import cartesian, corona, direct, lexicographic, strong
from openpack.solvers import GraphFacts
from openpack.transforms import square, two_step


def valid(g: Graph) -> Graph:
    assert isinstance(g.adj, tuple)
    _validate(g.n, g.adj)
    return g


@st.composite
def edge_lists(draw, max_n: int = 12):
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=3 * n) if n > 1 else st.just([]))


@st.composite
def pruefer_sequences(draw, max_n: int = 40):
    n = draw(st.integers(2, max_n))
    return n, draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))


class TestTrustedBuildersPassTheValidator:
    @settings(max_examples=200)
    @given(edge_lists())
    def test_from_edge_list(self, case):
        valid(from_edge_list(*case))

    @settings(max_examples=100)
    @given(st.integers(1, 200), st.integers(0, 10**6))
    def test_random_tree(self, n, seed):
        valid(random_tree(n, seed))

    @settings(max_examples=200)
    @given(pruefer_sequences())
    def test_tree_from_pruefer(self, case):
        valid(tree_from_pruefer(*case))

    @settings(max_examples=200)
    @given(graphs(max_n=10))
    def test_graph6_round_trip(self, g):
        assert valid(parse_graph6(to_graph6(g))) == g

    @settings(max_examples=200)
    @given(graphs(max_n=10))
    def test_complement(self, g):
        valid(complement(g))

    @settings(max_examples=200)
    @given(graphs(max_n=8), graphs(max_n=8))
    def test_disjoint_union(self, g, h):
        valid(disjoint_union(g, h))

    @settings(max_examples=200)
    @given(graphs(max_n=10))
    def test_two_step(self, g):
        valid(two_step(g))

    @settings(max_examples=200)
    @given(graphs(max_n=10))
    def test_square(self, g):
        valid(square(g))
        valid(GraphFacts(g).square)

    @settings(max_examples=200)
    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
    def test_from_code(self, case):
        valid(graph._from_code(*case))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumerate_all_graphs(self, n):
        for g in enumerate_all_graphs(n):
            valid(g)

    @given(st.integers(1, 30), st.integers(0, 30))
    def test_complete_families(self, a, b):
        valid(complete(a))
        valid(complete_bipartite(a, b))

    @pytest.mark.parametrize("product", [cartesian, direct, strong, lexicographic, corona],
                             ids=lambda product: product.__name__)
    @settings(max_examples=100)
    @given(graphs(max_n=6), graphs(max_n=6))
    def test_products(self, product, g, h):
        p, layout = product(g, h)
        assert valid(p).n == layout.n

    @pytest.mark.parametrize("k", [3, 4, 7, 20])
    def test_ng_extremal(self, k):
        assert valid(ng_extremal(k)).m == k * k


class TestPickle:
    @settings(max_examples=100)
    @given(graphs(max_n=10))
    def test_round_trip_skips_the_validator(self, g):
        def refuse(n, adj):
            raise AssertionError("unpickling ran the validator")

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(graph, "_validate", refuse)
            back = pickle.loads(pickle.dumps(g))
        assert back == g and valid(back).adj == g.adj


LOW = "a graph needs at least one vertex, got n="
HIGH = f"at most {MAX_VERTICES} vertices supported, got "


class TestOrderChecks:
    """A trusted builder skips the edge walk, never the order check."""

    @pytest.mark.parametrize("build, message", [
        (lambda: from_edge_list(0, []), LOW + "0"),
        (lambda: from_edge_list(-2, []), LOW + "-2"),
        (lambda: from_edge_list(MAX_VERTICES + 1, []), HIGH + str(MAX_VERTICES + 1)),
        # refused before its rows would be allocated
        (lambda: from_edge_list(10**15, []), HIGH + str(10**15)),
        (lambda: complete_bipartite(0, 0), LOW + "0"),
        (lambda: complete_bipartite(MAX_VERTICES, 1), HIGH + str(MAX_VERTICES + 1)),
        (lambda: disjoint_union(from_edge_list(MAX_VERTICES - 3, []), complete(4)),
         HIGH + str(MAX_VERTICES + 1)),
        (lambda: random_tree(MAX_VERTICES + 1, 0), HIGH + str(MAX_VERTICES + 1)),
    ])
    def test_refused(self, build, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build()

    def test_disjoint_union_at_the_cap(self):
        g = disjoint_union(from_edge_list(MAX_VERTICES - 4, []), complete(4))
        assert g.n == MAX_VERTICES and g.m == 6


class TestGraphStillValidates:
    """``Graph(n, adj)`` refuses what it always refused, with the same message."""

    @pytest.mark.parametrize("n, adj, message", [
        (0, (), LOW + "0"),
        (MAX_VERTICES + 1, (), HIGH + str(MAX_VERTICES + 1)),
        (3, (2, 1), "expected 3 adjacency masks, got 2"),
        (2, (2, 0), "edge 0-1 is not symmetric"),
        (2, (1, 0), "loop at vertex 0"),
        (2, (4, 0), "adjacency of 0 mentions a vertex outside 0..1"),
        (2, (-1, 0), "adjacency of 0 mentions a vertex outside 0..1"),
    ])
    def test_refused(self, n, adj, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Graph(n, adj)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            _validate(n, adj)


class TestPrueferEntries:
    @pytest.mark.parametrize("seq, entry", [([5, 0], 5), ([4, 0], 4), ([-1, 0], -1), ([0, 9], 9)])
    def test_out_of_range_entry_named(self, seq, entry):
        with pytest.raises(GraphError, match=f"^Pruefer entry {entry} is outside 0..3 for n=4$"):
            tree_from_pruefer(4, seq)

    def test_wrong_length(self):
        with pytest.raises(GraphError, match="must have length 2"):
            tree_from_pruefer(4, [0])

    def test_star_and_path(self):
        assert tree_from_pruefer(4, [0, 0]).adj == (0b1110, 1, 1, 1)
        assert tree_from_pruefer(4, [1, 2]).adj == (0b0010, 0b0101, 0b1010, 0b0100)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_needs_two_vertices(self, n):
        with pytest.raises(GraphError, match=f"^a Pruefer sequence needs two or more vertices, got n={n}$"):
            tree_from_pruefer(n, [])

    @pytest.mark.parametrize("seq", [[0] * 4998, [], [0] * 4997 + [10**6]])
    def test_order_checked_before_the_sequence(self, seq):
        # the order is refused before the length or any entry is looked at
        with pytest.raises(GraphError, match=f"^{re.escape(HIGH)}5000$"):
            tree_from_pruefer(5000, seq)


class TestPrueferDecode:
    """The pointer decode returns the rows of the heap decode it replaced."""

    def test_every_sequence_up_to_seven_vertices(self):
        checked = 0
        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                assert tree_from_pruefer(n, list(seq)).adj == oracles.reference_tree_from_pruefer(n, seq), seq
                checked += 1
        assert checked == 1 + 3 + 16 + 125 + 1296 + 16807

    @given(st.integers(2, 500).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))))
    @settings(max_examples=200)
    def test_random_sequences(self, case):
        n, seq = case
        assert tree_from_pruefer(n, seq).adj == oracles.reference_tree_from_pruefer(n, seq)
