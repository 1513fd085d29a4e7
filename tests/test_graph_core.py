import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs
from openpack.graph import (
    Graph,
    GraphError,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_tree,
    iter_bits,
    max_degree,
    min_degree,
    path,
    random_graph,
    random_tree,
    star,
)
from openpack.graph import _components, _layers


class TestConstruction:
    def test_k2(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.n == 2 and g.m == 1 and g.has_edge(0, 1)

    def test_repr_gives_order_and_size(self):
        assert repr(path(3)) == "Graph(n=3, m=2)"

    def test_empty_graph(self):
        g = from_edge_list(3, [])
        assert g.adj == (0, 0, 0)

    def test_c4_degrees(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.degree(v) == 2 for v in range(4))

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(2, [(0, 2)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphError):
            Graph(0, ())

    def test_asymmetric_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, (2, 0))

    def test_loop_mask_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, (1, 1))

    def test_immutable_adjacency(self):
        g = cycle(4)
        assert isinstance(g.adj, tuple)


class TestGenerators:
    def test_cycle4(self):
        g = cycle(4)
        assert g.n == 4 and g.m == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle(2)

    def test_star(self):
        g = star(4)
        assert max_degree(g) == 3 and min_degree(g) == 1

    def test_path_star_equal_small(self):
        assert path(2) == star(2)

    def test_complete_bipartite_empty_side(self):
        g = complete_bipartite(0, 3)
        assert g.n == 3 and g.m == 0

    def test_random_tree_is_tree(self):
        g = random_tree(10, seed=7)
        assert is_connected(g) and g.m == 9 and is_tree(g)

    @pytest.mark.parametrize("n", [0, -1])
    def test_random_tree_needs_a_vertex(self, n):
        with pytest.raises(GraphError, match="at least one vertex"):
            random_tree(n, seed=1)

    @pytest.mark.parametrize("build, named", [
        (lambda: complete(-1), "n=-1"),
        (lambda: complete(0), "n=0"),
        (lambda: star(-2), "n=-2"),
        (lambda: star(0), "n=0"),
        (lambda: complete_bipartite(-2, -1), "a=-2 b=-1"),
        (lambda: complete_bipartite(2, -1), "a=2 b=-1"),
        (lambda: complete_bipartite(0, 0), "n=0"),
        (lambda: path(0), "n=0"),
        (lambda: cycle(2), "n=2"),
    ])
    def test_bad_size_named(self, build, named):
        with pytest.raises(GraphError, match=named):
            build()

    def test_random_tree_deterministic(self):
        assert random_tree(30, seed=5) == random_tree(30, seed=5)
        assert random_tree(30, seed=5) != random_tree(30, seed=6)

    def test_random_tree_keeps_the_randrange_stream(self):
        # the getrandbits draw must give the trees of randrange(n) on this interpreter
        for n in range(1, 501):
            for seed in (0, 1, 7, 1000 * n + 3, 2**64 + n):
                assert random_tree(n, seed).adj == oracles.reference_random_tree(n, seed), (n, seed)
        assert random_tree(4096, 1).adj == oracles.reference_random_tree(4096, 1)

    def test_random_graph_deterministic(self):
        assert random_graph(12, 0.4, 3) == random_graph(12, 0.4, 3)

    def test_random_graph_probability_bounds(self):
        assert random_graph(5, 0.0, 1).m == 0
        assert random_graph(5, 1.0, 1).m == 10
        with pytest.raises(GraphError):
            random_graph(5, 1.5, 1)


class TestElementaryOps:
    def test_complement_complete(self):
        assert complement(complete(5)).m == 0

    def test_complement_p3(self):
        g = complement(path(3))
        # one edge plus an isolated vertex
        assert g.m == 1 and g.has_edge(0, 2) and g.adj[1] == 0

    def test_complement_p4_self(self):
        assert oracles.permutation_isomorphic(complement(path(4)), path(4))
        assert oracles.isomorphic(complement(path(4)), path(4))

    def test_complement_against_definition(self):
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                assert list(complement(g).adj) == oracles.brute_complement(g)

    def test_disjoint_union_against_definition(self):
        gs = [g for n in range(1, 4) for g in enumerate_all_graphs(n)]
        for g in gs:
            for h in gs:
                assert list(disjoint_union(g, h).adj) == oracles.brute_disjoint_union(g, h)

    def test_disjoint_union(self):
        k2 = from_edge_list(2, [(0, 1)])
        g = disjoint_union(k2, k2)
        assert g.n == 4 and g.m == 2
        assert disjoint_union(complete(3), Graph(1, (0,))).m == 3


class TestInvariants:
    def test_degrees(self):
        assert max_degree(star(4)) == 3

    def test_bipartite(self):
        assert is_bipartite(cycle(6))
        assert not is_bipartite(cycle(5))
        assert is_bipartite(from_edge_list(3, []))

    def test_is_tree(self):
        assert is_tree(path(6))
        assert not is_tree(cycle(6))
        assert not is_tree(from_edge_list(4, [(0, 1), (2, 3)]))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64), (6, 32768)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_all_graphs(n)) == count

    def test_no_duplicates(self):
        seen = set(enumerate_all_graphs(4))
        assert len(seen) == 64

    def test_cap(self):
        with pytest.raises(GraphError):
            next(enumerate_all_graphs(8))

    @pytest.mark.parametrize("n", [-1, 0, 8])
    def test_refused_at_the_call(self, n):
        # before the first graph is asked for, not at the first next()
        with pytest.raises(GraphError, match=f"got n={n}"):
            enumerate_all_graphs(n)


class TestProperties:
    @given(graphs(max_n=8))
    @settings(max_examples=80)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs(max_n=8))
    @settings(max_examples=80)
    def test_complement_edge_count(self, g):
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_bfs_matches_oracle(self, g):
        for v in range(g.n):
            dist = [-1] * g.n
            for d, layer in enumerate(_layers(g.adj, v)):
                for u in iter_bits(layer):
                    dist[u] = d
            assert oracles.bfs_distances(g, v) == dist


@st.composite
def sparse_graphs(draw, max_n: int = 30):
    """Disjoint unions of up to four sparse pieces, relabeled at random, so
    that components, bipartite or not, interleave in vertex order."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        ends = st.integers(lo, hi - 1)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * (hi - lo)))
        edges += [(label[u], label[v]) for u, v in pairs if u != v]
    return from_edge_list(n, edges)


class TestTraversalAgainstNetworkx:
    """The one layer traversal answers what networkx's own searches do."""

    @given(sparse_graphs())
    @settings(max_examples=300, deadline=None)
    def test_connectivity_bipartiteness_components(self, g):
        networkx = pytest.importorskip("networkx")
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        assert is_connected(g) == networkx.is_connected(nxg)
        assert is_bipartite(g) == networkx.is_bipartite(nxg)
        masks = [sum(1 << v for v in comp) for comp in networkx.connected_components(nxg)]
        assert _components(g.adj) == sorted(masks, key=lambda mask: mask & -mask)
