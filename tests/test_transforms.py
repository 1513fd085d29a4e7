import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs, graphs_with_subset
from openpack.graph import (
    complete,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    iter_bits,
    path,
    random_tree,
)
from openpack.solvers import GraphFacts, is_open_packing, is_packing
from openpack.harness import all_graphs_upto
from openpack.transforms import (
    _edges_on_triangles,
    closed_neighborhood_graph,
    every_edge_on_triangle,
    has_even_cycle,
    is_chordal,
    square,
    two_step,
)


class TestTwoStep:
    def test_c6_two_triangles(self):
        assert oracles.isomorphic(two_step(cycle(6)), disjoint_union(complete(3), complete(3)))

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


def assert_matches_pair_scan(g) -> None:
    """Both transforms, and the square ``GraphFacts`` builds from the
    two-step rows, equal the pair-scan oracles."""
    assert list(two_step(g).adj) == oracles.brute_two_step(g)
    brute = oracles.brute_square(g)
    assert list(square(g).adj) == brute
    assert list(GraphFacts(g).square.adj) == brute


class TestAgainstPairScan:
    def test_exhaustive_n_le_6(self):
        for n in range(1, 7):
            for g in enumerate_all_graphs(n):
                assert_matches_pair_scan(g)

    @given(graphs(min_n=7, max_n=40))
    @settings(max_examples=60)
    def test_random(self, g):
        assert_matches_pair_scan(g)


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

    def test_two_step_rows_match_the_per_edge_definition_for_every_graph_n_le_6(self):
        # an edge uv is on a triangle iff u and v have a common neighbor
        for g in all_graphs_upto(6):
            per_edge = all(g.adj[u] & g.adj[v] for u, v in g.edges())
            assert _edges_on_triangles(g.adj, two_step(g).adj) == per_edge
            assert every_edge_on_triangle(g) == per_edge


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


@st.composite
def sparse_graphs(draw, max_n: int = 40):
    """Up to 1.5 edges per vertex, so that forests, cacti and chordless
    cycles all turn up."""
    n = draw(st.integers(1, max_n))
    ends = st.integers(0, n - 1)
    size = draw(st.integers(0, 3 * n // 2))
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=size, max_size=size))
    return from_edge_list(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def cacti(draw, max_n: int = 40):
    """A randomly relabeled cactus of odd and even cycles and bridges over
    several components, and the same cactus with one chord added to a cycle
    of length >= 4 (None if it has none): a theta graph, which always has an
    even cycle."""
    n, edges, long_cycles = 0, [], []
    for _ in range(draw(st.integers(1, 4))):
        n += 1  # the component's first vertex
        first = n - 1
        for size in draw(st.lists(st.sampled_from([2, 3, 3, 4, 5, 5, 6, 7]), max_size=5)):
            if n + size - 1 > max_n:
                break
            ring = [draw(st.integers(first, n - 1)), *range(n, n + size - 1)]
            n += size - 1
            edges += [(ring[i], ring[i + 1]) for i in range(size - 1)]
            if size > 2:
                edges.append((ring[-1], ring[0]))
            if size > 3:
                long_cycles.append(ring)
    label = draw(st.permutations(range(n)))
    chorded = None
    if long_cycles:
        ring = draw(st.sampled_from(long_cycles))
        i = draw(st.integers(0, len(ring) - 3))
        j = draw(st.integers(i + 2, len(ring) - 1 if i else len(ring) - 2))
        chorded = from_edge_list(n, [(label[u], label[v]) for u, v in [*edges, (ring[i], ring[j])]])
    return from_edge_list(n, [(label[u], label[v]) for u, v in edges]), chorded


@st.composite
def chordal_fill_ins(draw, max_n: int = 40):
    """A sparse graph filled in along a random elimination order, which makes
    it chordal, then possibly one edge more or less."""
    g = draw(sparse_graphs(max_n))
    adj = list(g.adj)
    for v in draw(st.permutations(range(g.n))):
        later = adj[v]
        for u in iter_bits(later):
            adj[u] |= later & ~(1 << u)
        for u in iter_bits(later):
            adj[u] &= ~(1 << v)
    # row v now holds v's neighbors at its elimination, fill edges included
    edges = sorted({(min(u, v), max(u, v)) for v in range(g.n) for u in iter_bits(adj[v])})
    change = draw(st.sampled_from(["none", "add", "drop"]))
    if change == "drop" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif change == "add" and g.n > 1:
        u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        edges.append((u, v))
    return from_edge_list(g.n, edges)


def to_networkx(g):
    networkx = pytest.importorskip("networkx")
    nxg = networkx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return networkx, nxg


def networkx_has_even_cycle(g) -> bool:
    """Some biconnected block is neither a single edge nor an odd cycle."""
    networkx, nxg = to_networkx(g)
    for block in networkx.biconnected_components(nxg):
        edges = nxg.subgraph(block).number_of_edges()
        if len(block) > 2 and (edges != len(block) or len(block) % 2 == 0):
            return True
    return False


def networkx_is_chordal(g) -> bool:
    networkx, nxg = to_networkx(g)
    return networkx.is_chordal(nxg)


class TestAgainstNetworkx:
    """The layer-forest even-cycle test and the one-pass chordality test
    agree with networkx past the exhaustive range."""

    @given(sparse_graphs())
    @settings(max_examples=300, deadline=None)
    def test_sparse_graphs(self, g):
        assert has_even_cycle(g) == networkx_has_even_cycle(g)
        assert is_chordal(g) == networkx_is_chordal(g)

    @given(cacti())
    @settings(max_examples=300, deadline=None)
    def test_cacti_with_and_without_a_chord(self, case):
        cactus, chorded = case
        assert has_even_cycle(cactus) == networkx_has_even_cycle(cactus)
        assert is_chordal(cactus) == networkx_is_chordal(cactus)
        if chorded is not None:
            assert has_even_cycle(chorded) and networkx_has_even_cycle(chorded)
            assert is_chordal(chorded) == networkx_is_chordal(chorded)

    @given(chordal_fill_ins())
    @settings(max_examples=300, deadline=None)
    def test_chordal_fill_ins(self, g):
        assert is_chordal(g) == networkx_is_chordal(g)
        assert has_even_cycle(g) == networkx_has_even_cycle(g)
