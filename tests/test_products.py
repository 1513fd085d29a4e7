import random

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from openpack.graph import (
    Graph,
    GraphError,
    complement,
    complete,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_bipartite,
    path,
    random_graph,
)
from openpack.products import (
    PRODUCTS,
    CoronaLayout,
    ProductVertexMap,
    cartesian,
    corona,
    direct,
    isolated_vertex_count,
    lexicographic,
    order,
    strong,
)

K1 = Graph(1, (0,))
K2 = from_edge_list(2, [(0, 1)])

# each product against the pair scan of its definition
DEFINITIONS = [
    (cartesian, oracles.brute_cartesian),
    (direct, oracles.brute_direct),
    (strong, oracles.brute_strong),
    (lexicographic, oracles.brute_lexicographic),
    (corona, oracles.brute_corona),
]


def all_graphs_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_all_graphs(k)


class TestVertexMap:
    def test_row_major(self):
        vmap = ProductVertexMap(3, 2)
        assert vmap.pairs[:3] == ((0, 0), (0, 1), (1, 0))
        assert vmap.pairs[5] == (2, 1)

    def test_corona_layout(self):
        layout = CoronaLayout(2, 3)
        assert layout.copy_range(0) == (2, 5)
        assert layout.copy_range(1) == (5, 8)


class TestCartesian:
    def test_k2_k2_is_c4(self):
        prod, _ = cartesian(K2, K2)
        assert oracles.isomorphic(prod, cycle(4))

    def test_c4_k3_regular(self):
        prod, _ = cartesian(cycle(4), complete(3))
        assert prod.n == 12 and prod.m == 24
        assert all(prod.degree(v) == 4 for v in range(12))

    def test_identity_factor(self):
        prod, _ = cartesian(K1, cycle(5))
        assert prod == cycle(5)


class TestDirect:
    def test_k1_factor_kills_edges(self):
        prod, _ = direct(cycle(4), K1)
        assert prod.n == 4 and prod.m == 0

    def test_c4_k2_doubles(self):
        prod, _ = direct(cycle(4), K2)
        assert oracles.isomorphic(prod, disjoint_union(cycle(4), cycle(4)))

    def test_k2_k2(self):
        prod, _ = direct(K2, K2)
        assert oracles.isomorphic(prod, disjoint_union(K2, K2))

    def test_bipartite_doubling(self):
        # direct(g, K2) is two copies of g for every bipartite g
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                if not is_bipartite(g):
                    continue
                prod, _ = direct(g, K2)
                assert oracles.isomorphic(prod, disjoint_union(g, g))
        rng = random.Random(3)
        checked = 0
        for g in enumerate_all_graphs(6):
            if rng.random() > 0.02 or not is_bipartite(g):
                continue
            prod, _ = direct(g, K2)
            assert oracles.isomorphic(prod, disjoint_union(g, g))
            checked += 1
        assert checked > 100


class TestStrong:
    def test_k2_k2_is_k4(self):
        prod, _ = strong(K2, K2)
        assert prod == complete(4)

    def test_identity_factor(self):
        prod, _ = strong(K1, path(4))
        assert prod == path(4)

    def test_p3_k2_edge_count(self):
        prod, _ = strong(path(3), K2)
        assert prod.n == 6 and prod.m == 11

    def test_union_structure(self):
        g, h = path(4), cycle(3)
        sp, _ = strong(g, h)
        cp, _ = cartesian(g, h)
        dp, _ = direct(g, h)
        assert all(sp.adj[i] == cp.adj[i] | dp.adj[i] for i in range(sp.n))
        # the two edge sets are disjoint
        assert sp.m == cp.m + dp.m


class TestLexicographic:
    def test_identity_factor(self):
        prod, _ = lexicographic(cycle(5), K1)
        assert prod == cycle(5)

    def test_k2_expansion_is_c4(self):
        prod, _ = lexicographic(K2, complement(K2))
        assert oracles.isomorphic(prod, cycle(4))

    def test_p3_k2_edge_count(self):
        prod, _ = lexicographic(path(3), K2)
        assert prod.n == 6 and prod.m == 11


class TestCorona:
    def test_k1_base_is_join(self):
        prod, layout = corona(K1, cycle(4))
        assert prod.n == 5 and prod.degree(0) == 4

    def test_p3_k1_pendant_tree(self):
        prod, _ = corona(path(3), K1)
        assert prod.n == 6 and prod.m == 5
        from openpack.graph import is_tree

        assert is_tree(prod)

    def test_k2_k2_edge_count(self):
        prod, layout = corona(K2, K2)
        assert prod.n == 6
        assert prod.m == K2.m + K2.n * (K2.m + K2.n)  # 1 + 2*(1+2) = 7
        lo, hi = layout.copy_range(1)
        assert all(prod.has_edge(1, u) for u in range(lo, hi))

    def test_copies_disconnected_except_through_base(self):
        prod, layout = corona(from_edge_list(2, []), K2)
        (a0, a1), (b0, b1) = layout.copy_range(0), layout.copy_range(1)
        assert not any(
            prod.has_edge(u, v) for u in range(a0, a1) for v in range(b0, b1)
        )


class TestAgainstDefinitions:
    def test_exhaustive_small_factors(self):
        hs = list(all_graphs_upto(3))
        for g in all_graphs_upto(4):
            for h in hs:
                for op, brute in DEFINITIONS:
                    assert list(op(g, h)[0].adj) == brute(g, h), (op.__name__, g, h)

    @given(graphs(max_n=7), graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_random_factors(self, g, h):
        for op, brute in DEFINITIONS:
            assert list(op(g, h)[0].adj) == brute(g, h), op.__name__


class TestEdgeCountFormulas:
    def test_exhaustive_small_factors(self):
        gs = list(all_graphs_upto(4))
        for g in gs:
            for h in gs:
                cp, _ = cartesian(g, h)
                assert cp.m == g.n * h.m + h.n * g.m
                dp, _ = direct(g, h)
                assert dp.m == 2 * g.m * h.m
                sp, _ = strong(g, h)
                assert sp.m == cp.m + dp.m
                lp, _ = lexicographic(g, h)
                assert lp.m == g.m * h.n * h.n + g.n * h.m
                cr, _ = corona(g, h)
                assert cr.m == g.m + g.n * (h.m + h.n)

    def test_random_factors_of_five(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(5, rng.random(), rng.randrange(10 ** 6))
            h = random_graph(5, rng.random(), rng.randrange(10 ** 6))
            cp, _ = cartesian(g, h)
            assert cp.m == g.n * h.m + h.n * g.m
            dp, _ = direct(g, h)
            assert dp.m == 2 * g.m * h.m
            lp, _ = lexicographic(g, h)
            assert lp.m == g.m * h.n * h.n + g.n * h.m


class TestCommutativity:
    def test_up_to_isomorphism(self):
        gs = list(all_graphs_upto(4))
        pairs = [(g, h) for g in gs for h in gs if g.n * h.n <= 9]
        for op in (cartesian, direct, strong):
            for g, h in pairs:
                assert oracles.isomorphic(op(g, h)[0], op(h, g)[0])


class TestMisc:
    def test_isolated_vertex_count(self):
        assert isolated_vertex_count(K2) == 0
        assert isolated_vertex_count(from_edge_list(3, [])) == 3
        assert isolated_vertex_count(disjoint_union(K2, K1)) == 1

    def test_size_cap(self):
        big = random_graph(70, 0.1, 1)
        with pytest.raises(GraphError):
            cartesian(big, big)

    @pytest.mark.parametrize("op", sorted(PRODUCTS))
    def test_order_is_the_built_order(self, op):
        for g, h in [(path(3), cycle(4)), (K1, K2), (complete(4), K1)]:
            assert PRODUCTS[op](g, h)[0].n == order(op, g.n, h.n)

    @pytest.mark.parametrize("op", sorted(PRODUCTS))
    def test_size_cap_names_the_order(self, op):
        big = Graph(65, [0] * 65)
        with pytest.raises(GraphError, match=f"would have {order(op, 65, 65)} vertices"):
            PRODUCTS[op](big, big)
