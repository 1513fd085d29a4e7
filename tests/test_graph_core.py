import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from openpack.graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    complement,
    complete,
    complete_bipartite,
    cycle,
    diameter,
    disjoint_union,
    eccentricity,
    enumerate_all_graphs,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_isomorphic,
    is_tree,
    max_degree,
    min_degree,
    path,
    random_graph,
    random_tree,
    star,
)


class TestConstruction:
    def test_k2(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.n == 2 and g.m == 1 and g.has_edge(0, 1)

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

    def test_random_tree_deterministic(self):
        assert random_tree(30, seed=5) == random_tree(30, seed=5)
        assert random_tree(30, seed=5) != random_tree(30, seed=6)

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
        assert is_isomorphic(complement(path(4)), path(4))

    def test_disjoint_union(self):
        k2 = from_edge_list(2, [(0, 1)])
        g = disjoint_union(k2, k2)
        assert g.n == 4 and g.m == 2
        assert disjoint_union(complete(3), Graph(1, (0,))).m == 3


class TestInvariants:
    def test_degrees(self):
        assert max_degree(star(4)) == 3

    def test_diameter_c5(self):
        assert diameter(cycle(5)) == 2

    def test_diameter_k1(self):
        assert diameter(Graph(1, (0,))) == 0

    def test_eccentricity_center(self):
        assert eccentricity(path(5), 2) == 2
        assert eccentricity(path(5), 0) == 4

    def test_diameter_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(from_edge_list(3, [(0, 1)]))

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


class TestIsomorphism:
    def test_relabeled_cycle(self):
        g = from_edge_list(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert is_isomorphic(g, cycle(4))

    def test_degree_sequence_mismatch(self):
        assert not is_isomorphic(path(4), star(4))

    def test_same_degrees_not_isomorphic(self):
        assert not is_isomorphic(cycle(6), disjoint_union(complete(3), complete(3)))

    def test_cap(self):
        with pytest.raises(GraphError):
            is_isomorphic(path(17), path(17))

    def test_agrees_with_permutation_search(self):
        import random

        rng = random.Random(11)
        for trial in range(60):
            n = rng.randrange(1, 6)
            g = random_graph(n, 0.5, rng.randrange(10 ** 6))
            h = random_graph(n, 0.5, rng.randrange(10 ** 6))
            assert is_isomorphic(g, h) == oracles.permutation_isomorphic(g, h)

    def test_relabelings_always_isomorphic(self):
        import random

        rng = random.Random(13)
        for trial in range(30):
            n = rng.randrange(2, 8)
            g = random_graph(n, 0.5, rng.randrange(10 ** 6))
            perm = list(range(n))
            rng.shuffle(perm)
            h = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert is_isomorphic(g, h)


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
    def test_diameter_is_max_eccentricity(self, g):
        if is_connected(g):
            assert diameter(g) == max(eccentricity(g, v) for v in range(g.n))

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_bfs_matches_oracle(self, g):
        from openpack.graph import _bfs_distances

        for v in range(g.n):
            assert oracles.bfs_distances(g, v) == _bfs_distances(g, v)
