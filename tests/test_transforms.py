from hypothesis import given, settings

import oracles
from conftest import graphs, graphs_with_subset
from openpack.graph import (
    complete,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_isomorphic,
    iter_bits,
    path,
    random_tree,
)
from openpack.solvers import is_open_packing, is_packing
from openpack.transforms import (
    closed_neighborhood_graph,
    every_edge_on_triangle,
    has_even_cycle,
    is_chordal,
    square,
    two_step,
)


class TestTwoStep:
    def test_c6_two_triangles(self):
        assert is_isomorphic(two_step(cycle(6)), disjoint_union(complete(3), complete(3)))

    def test_empty_stays_empty(self):
        g = from_edge_list(4, [])
        assert two_step(g).m == 0

    def test_c4(self):
        ts = two_step(cycle(4))
        assert sorted(ts.edges()) == [(0, 2), (1, 3)]

    def test_k3_fixed_point(self):
        assert two_step(complete(3)) == complete(3)

    def test_isolated_vertices_stay_isolated(self):
        g = from_edge_list(5, [(0, 1), (1, 2)])
        ts = two_step(g)
        assert ts.adj[3] == 0 and ts.adj[4] == 0


class TestSquare:
    def test_p3_becomes_triangle(self):
        assert square(path(3)) == complete(3)

    def test_c5_becomes_complete(self):
        assert square(cycle(5)) == complete(5)

    def test_components_preserved(self):
        two_k2 = disjoint_union(path(2), path(2))
        assert square(two_k2) == two_k2

    def test_alias(self):
        assert square is closed_neighborhood_graph

    @given(graphs(max_n=7))
    @settings(max_examples=80)
    def test_square_is_distance_le_2(self, g):
        sq = square(g)
        for v in range(g.n):
            dist = oracles.bfs_distances(g, v)
            expect = sum(
                1 << u for u in range(g.n) if u != v and 0 <= dist[u] <= 2
            )
            assert sq.adj[v] == expect

    def test_square_distance_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                sq = square(g)
                for v in range(g.n):
                    dist = oracles.bfs_distances(g, v)
                    expect = sum(
                        1 << u for u in range(g.n) if u != v and 0 <= dist[u] <= 2
                    )
                    assert sq.adj[v] == expect

    @given(graphs(max_n=8))
    @settings(max_examples=60)
    def test_two_step_within_distance_two(self, g):
        ts = two_step(g)
        for v in range(g.n):
            dist = oracles.bfs_distances(g, v)
            for u in iter_bits(ts.adj[v]):
                assert 1 <= dist[u] <= 2


class TestAgainstPairScan:
    def test_exhaustive_n_le_6(self):
        for n in range(1, 7):
            for g in enumerate_all_graphs(n):
                assert list(two_step(g).adj) == oracles.brute_two_step(g)
                assert list(square(g).adj) == oracles.brute_square(g)

    @given(graphs(min_n=7, max_n=40))
    @settings(max_examples=60)
    def test_random(self, g):
        assert list(two_step(g).adj) == oracles.brute_two_step(g)
        assert list(square(g).adj) == oracles.brute_square(g)


class TestIndependenceCorrespondence:
    def test_exhaustive_n_le_6(self):
        # independent in two_step(g) <=> open packing in g, and
        # independent in square(g) <=> packing in g, over every subset
        for n in range(1, 7):
            for g in enumerate_all_graphs(n):
                ts = two_step(g)
                sq = square(g)
                for mask in range(1 << n):
                    ts_independent = all(
                        not ts.adj[v] & mask for v in iter_bits(mask)
                    )
                    assert ts_independent == is_open_packing(g, mask)
                    sq_independent = all(
                        not sq.adj[v] & mask for v in iter_bits(mask)
                    )
                    assert sq_independent == is_packing(g, mask)

    @given(graphs_with_subset(max_n=9))
    @settings(max_examples=100)
    def test_membership_definitions_random(self, payload):
        g, mask = payload
        members = tuple(iter_bits(mask))
        assert is_open_packing(g, mask) == oracles.set_is_open_packing(g, members)
        assert is_packing(g, mask) == oracles.set_is_packing(g, members)


class TestEveryEdgeOnTriangle:
    def test_complete(self):
        assert every_edge_on_triangle(complete(4))

    def test_triangle_free_cycle(self):
        assert not every_edge_on_triangle(cycle(5))
        assert not every_edge_on_triangle(cycle(4))

    def test_vacuous_on_empty(self):
        assert every_edge_on_triangle(from_edge_list(3, []))


class TestHasEvenCycle:
    def test_trees(self):
        for seed in range(5):
            assert not has_even_cycle(random_tree(12, seed))

    def test_c4(self):
        assert has_even_cycle(cycle(4))

    def test_c5(self):
        assert not has_even_cycle(cycle(5))

    def test_two_triangles_sharing_vertex(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert not has_even_cycle(g)

    def test_theta_graph(self):
        # two vertices joined by three paths: always contains an even cycle
        g = from_edge_list(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
        assert has_even_cycle(g)

    def test_exhaustive_vs_cycle_enumeration(self):
        for n in range(1, 7):
            for g in enumerate_all_graphs(n):
                assert has_even_cycle(g) == oracles.brute_has_even_cycle(g)

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_random_vs_cycle_enumeration(self, g):
        assert has_even_cycle(g) == oracles.brute_has_even_cycle(g)


class TestChordal:
    def test_trees(self):
        for seed in range(5):
            assert is_chordal(random_tree(10, seed))

    def test_c4(self):
        assert not is_chordal(cycle(4))

    def test_k4(self):
        assert is_chordal(complete(4))

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for g in enumerate_all_graphs(n):
                assert is_chordal(g) == oracles.brute_is_chordal(g)
