import pytest

import oracles
from openpack.constructions import (
    cart_sharp_instance,
    ng_extremal,
    psi_graph,
    tree_opp,
)
from openpack.graph import (
    GraphError,
    complement,
    complete,
    cycle,
    disjoint_union,
    from_edge_list,
    is_connected,
    max_degree,
    path,
    random_tree,
    star,
)
from openpack.solvers import (
    VertexSet,
    is_open_packing,
    is_opp,
    open_packing_number,
    open_packing_partition_number,
    total_domination_number,
)


class TestTreeOpp:
    def test_p2_single_class(self):
        lab = tree_opp(path(2))
        assert lab.k == 1 and lab.labels == (1, 1)

    def test_star_all_labels(self):
        lab = tree_opp(star(5))
        assert lab.k == 4
        assert lab.labels[0] == 1
        assert sorted(lab.labels[1:]) == [1, 2, 3, 4]

    def test_path_two_classes(self):
        lab = tree_opp(path(7))
        assert lab.k == 2 and is_opp(path(7), lab)

    def test_solver_agreement_small(self):
        for n in range(2, 13):
            for i in range(40):
                t = random_tree(n, seed=97 * n + i)
                lab = tree_opp(t)
                assert is_opp(t, lab)
                assert lab.k == max_degree(t)
                assert open_packing_partition_number(t)[0] == lab.k

    def test_large_tree_valid(self):
        t = random_tree(500, seed=4)
        lab = tree_opp(t)
        assert is_opp(t, lab) and lab.k == max_degree(t)

    def test_rejects_non_trees(self):
        with pytest.raises(GraphError):
            tree_opp(cycle(4))
        with pytest.raises(GraphError):
            tree_opp(from_edge_list(1, []))
        # m = n - 1 but disconnected: triangle plus isolated vertex
        with pytest.raises(GraphError):
            tree_opp(from_edge_list(4, [(0, 1), (1, 2), (2, 0)]))
        # m = n - 1 and no vertex reached twice: K1,4 plus a triangle, rooted at
        # the star's centre, is refused only because the triangle is not covered
        with pytest.raises(GraphError, match="^input is not a tree$"):
            tree_opp(disjoint_union(star(5), cycle(3)))


def _labels_and_k(g) -> tuple[tuple[int, ...], int]:
    lab = tree_opp(g)
    return lab.labels, lab.k


def _outcome(label, g):
    """What ``label(g)`` returns, or the message it refuses g with."""
    try:
        return label(g)
    except GraphError as exc:
        return str(exc)


class TestTreeOppReference:
    """The stack walk gives the labels, k and refusals of the breadth-first
    queue it replaced."""

    def test_random_trees(self):
        checked = 0
        for n in range(2, 501):
            for i in range(5):
                t = random_tree(n, seed=31 * n + i)
                lab = tree_opp(t)
                assert (lab.labels, lab.k) == oracles.reference_tree_opp(t.adj), (n, i)
                checked += 1
        assert checked == 2495

    @pytest.mark.parametrize("g", [
        pytest.param(star(9), id="star-stack-never-used"),
        pytest.param(path(9), id="path"),
        pytest.param(disjoint_union(star(5), cycle(3)), id="K14-plus-triangle"),
        pytest.param(disjoint_union(star(4), cycle(3)), id="K13-plus-triangle"),
        pytest.param(disjoint_union(path(6), cycle(3)), id="path-plus-triangle"),
        pytest.param(from_edge_list(4, [(0, 1), (1, 2), (2, 0)]), id="cycle-with-root-plus-isolated"),
        pytest.param(from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)]),
                     id="pendant-cycle-with-root-plus-isolated"),
        pytest.param(cycle(4), id="too-many-edges"),
        pytest.param(from_edge_list(1, []), id="one-vertex"),
    ])
    def test_same_outcome(self, g):
        ours = _outcome(_labels_and_k, g)
        assert ours == _outcome(lambda g: oracles.reference_tree_opp(g.adj), g)
        if g.n >= 2 and g.m == g.n - 1 and is_connected(g):
            assert isinstance(ours, tuple)
        else:
            assert ours in ("input is not a tree", "tree labeling needs at least two vertices, got n=1")


class TestPsiFamily:
    def test_spec_validation(self):
        with pytest.raises(GraphError, match="need at least two parts, got r=1"):
            psi_graph(1, 2)
        with pytest.raises(GraphError, match="must be even and at least two, got s=3"):
            psi_graph(2, 3)
        with pytest.raises(GraphError, match="must be even and at least two, got s=0"):
            psi_graph(2, 0)

    def test_2_2_is_c4(self):
        assert oracles.isomorphic(psi_graph(2, 2), cycle(4))

    def test_3_2_shape(self):
        g = psi_graph(3, 2)
        assert g.n == 6 and g.m == 9
        assert all(g.degree(v) == 3 for v in range(6))
        assert open_packing_partition_number(g)[0] == 3
        assert open_packing_number(g)[0] == 2

    def test_regularity_and_size(self):
        for r, s in [(2, 2), (2, 4), (3, 2), (4, 2), (3, 4)]:
            g = psi_graph(r, s)
            assert g.n == r * s and g.m == g.n * r // 2
            assert all(g.degree(v) == r for v in range(g.n))

    def test_parts_are_open_packings_and_total_dominating(self):
        for r, s in [(2, 2), (2, 4), (3, 2), (4, 2)]:
            g = psi_graph(r, s)
            for i in range(r):
                part = VertexSet.of(range(i * s, (i + 1) * s))
                assert is_open_packing(g, part)
                assert all(g.adj[v] & part.bits for v in range(g.n))
            assert open_packing_number(g)[0] == s
            assert total_domination_number(g)[0] == s


class TestNgExtremal:
    def test_minimum_size(self):
        with pytest.raises(GraphError):
            ng_extremal(2)

    def test_complement_two_cliques(self):
        for k in (3, 4, 5):
            g = ng_extremal(k)
            co = complement(g)
            assert oracles.isomorphic(co, disjoint_union(complete(k), complete(k)))

    def test_figure_instance(self):
        g = ng_extremal(4)
        assert g.n == 8 and g.m == 16
        assert all(g.degree(v) == 4 for v in range(8))

    def test_pairing_classes_form_opp(self):
        g = ng_extremal(3)
        for i in range(3):
            assert is_open_packing(g, VertexSet.of([2 * i, 2 * i + 1]))

    def test_complement_sum_reaches_order(self):
        g = ng_extremal(3)
        total = (
            open_packing_partition_number(g)[0]
            + open_packing_partition_number(complement(g))[0]
        )
        assert total == g.n


class TestCartSharp:
    def test_smallest_instance(self):
        g = cart_sharp_instance(1, 3)
        assert g.n == 12
        assert open_packing_partition_number(g)[0] == 6

    def test_n4(self):
        g = cart_sharp_instance(1, 4)
        assert open_packing_partition_number(g)[0] == 8

    def test_m2_exceeds_doubled_column_pattern(self):
        # the two-per-column pattern {rows 4k-3, 4k-2 of column 1} is an open
        # packing of size 2m, but for m >= 2 it is not maximum: denser
        # packings exist across distinct columns, and p_o drops below 2n
        g = cart_sharp_instance(2, 3)
        assert g.n == 24
        pattern = VertexSet.of([0, 3, 12, 15])
        assert is_open_packing(g, pattern)
        rho_o, cert = open_packing_number(g)
        assert rho_o == 5
        assert is_open_packing(g, cert)
        assert open_packing_partition_number(g)[0] == 5
        # independent route: maximum clique enumeration on the complement
        # of the two-step graph
        networkx = pytest.importorskip("networkx")
        from openpack.transforms import two_step

        ts = two_step(g)
        comp = networkx.Graph()
        comp.add_nodes_from(range(ts.n))
        comp.add_edges_from(
            (u, v)
            for u in range(ts.n)
            for v in range(u + 1, ts.n)
            if not ts.adj[u] >> v & 1
        )
        assert max(len(c) for c in networkx.find_cliques(comp)) == 5

    def test_validation(self):
        with pytest.raises(GraphError):
            cart_sharp_instance(0, 3)
        with pytest.raises(GraphError):
            cart_sharp_instance(1, 2)
