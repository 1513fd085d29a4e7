"""Optimality checked by solvers that share no code with openpack's searches.

The certificate checks prove that each returned witness is valid; these tests
check that its value is optimal past brute-force range.  gamma and gamma_t of
the 37 medium graphs (the perfbench ``medium-reports`` corpus) are solved
again as set-cover ILPs by scipy's HiGHS, once from fresh facts and once from
facts that solve gamma first, so that gamma_t's search stops at gamma; rho
and rho_o are solved again as packing ILPs, and chi, p_o and chi2 of small
G(n, p) as colouring ILPs, among them graphs on which the greedy colouring
uses one colour too many.  rho, rho_o and omega_N of fixed G(n, p) graphs of
up to 30 vertices are clique numbers that networkx's ``max_weight_clique``
finds on transforms built by the pair-scan oracles.  Each of these is skipped
where scipy or networkx is not installed.

The values also obey relations that no search knows of: all of them are
unchanged by relabelling, each adds or takes the maximum or minimum over a
disjoint union, and on a tree p_o is the maximum degree (T10), which ``verify``
proves with no search, so the solver checks it here from 13 to 64 vertices.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs, relabelled
from openpack import _kernels_py as _kernel
from openpack.graph import (
    Graph,
    complement,
    disjoint_union,
    max_degree,
    random_graph,
    random_tree,
    star,
)
from openpack.harness import EQUALITY, check_T10
from openpack.products import corona
from openpack.solvers import (
    GraphFacts,
    chromatic_number,
    domination_number,
    full_report,
    omega_of_two_step,
    open_packing_number,
    open_packing_partition_number,
    packing_number,
    total_domination_number,
    two_distance_chromatic,
)

pytestmark = pytest.mark.usefixtures("search_deadline")

MEDIUM = {f"G({n},{p},{seed})": (n, p, seed)
          for n in (40, 48, 56) for p in (0.1, 0.2, 0.3, 0.5) for seed in range(3)}


def medium_graph(label: str) -> Graph:
    if label == "corona(K1_3,3K1)":
        return corona(star(4), Graph(3, [0] * 3))[0]
    return random_graph(*MEDIUM[label])


@pytest.mark.parametrize("label", [*MEDIUM, "corona(K1_3,3K1)"])
def test_domination_against_highs(label):
    g = medium_graph(label)
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    assert domination_number(g)[0] == oracles.milp_min_cover(g.n, closed)
    if all(g.adj):
        assert total_domination_number(g)[0] == oracles.milp_min_cover(g.n, list(g.adj))


@pytest.mark.parametrize("label", [*MEDIUM, "corona(K1_3,3K1)"])
def test_floored_total_domination_against_highs(label):
    # gamma first, then gamma_t, from one GraphFacts, as full_report and T14
    # read them: gamma_t's search then stops at gamma, its floor
    g = medium_graph(label)
    facts = GraphFacts(g)
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    assert facts.gamma[0] == oracles.milp_min_cover(g.n, closed)
    if all(g.adj):
        assert facts.gamma_t[0] == oracles.milp_min_cover(g.n, list(g.adj))


@pytest.mark.parametrize("label", [*MEDIUM, "corona(K1_3,3K1)"])
def test_packing_against_highs(label):
    g = medium_graph(label)
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    assert packing_number(g)[0] == oracles.milp_max_packing(g.n, closed)
    assert open_packing_number(g)[0] == oracles.milp_max_packing(g.n, list(g.adj))


@pytest.mark.parametrize("n, p, seed", [
    (16, 0.3, 0), (20, 0.15, 1), (24, 0.2, 2), (30, 0.1, 3), (30, 0.2, 4), (30, 0.4, 5),
])
def test_independent_set_search_against_networkx(n, p, seed):
    g = random_graph(n, p, seed)
    two_step = oracles.brute_two_step(g)
    square = oracles.brute_square(g)
    full = (1 << n) - 1
    assert packing_number(g)[0] == oracles.networkx_clique_number(
        n, [full & ~row & ~(1 << v) for v, row in enumerate(square)])
    assert open_packing_number(g)[0] == oracles.networkx_clique_number(
        n, [full & ~row & ~(1 << v) for v, row in enumerate(two_step)])
    assert omega_of_two_step(g)[0] == oracles.networkx_clique_number(n, two_step)


COLOURINGS = {
    "chi": (chromatic_number, lambda g: list(g.adj)),
    "p_o": (open_packing_partition_number, oracles.brute_two_step),
    "chi2": (two_distance_chromatic, oracles.brute_square),
}


@pytest.mark.parametrize("n, p", [(n, p) for n in range(6, 13) for p in (0.3, 0.5)])
def test_colourings_against_highs(n, p):
    g = random_graph(n, p, n)
    for name, (solve, rows) in COLOURINGS.items():
        assert solve(g)[0] == oracles.milp_chromatic(n, rows(g)), name


@pytest.mark.parametrize("name, n, p, seed, greedy", [
    ("chi", 10, 0.5, 37, 4), ("p_o", 12, 0.3, 564, 6), ("chi2", 11, 0.3, 1431, 5),
])
def test_colouring_beats_greedy(name, n, p, seed, greedy):
    # graphs on which the kernel's greedy colouring uses one colour too many,
    # so a chromatic search that stopped at its greedy bound would fail here
    solve, rows = COLOURINGS[name]
    g = random_graph(n, p, seed)
    adj = rows(g)
    assert _kernel._greedy_coloring(n, adj, _kernel._degree_levels(n, adj))[0] == greedy
    assert solve(g)[0] == oracles.milp_chromatic(n, adj) == greedy - 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_values_survive_relabelling(data):
    g = data.draw(graphs(1, 9))
    perm = data.draw(st.permutations(range(g.n)))
    assert full_report(Graph(g.n, relabelled(g, perm))).values == full_report(g).values


SUM = ("n", "m", "rho", "rho_o", "gamma")
MAX = ("Delta", "chi", "p_o", "chi2", "omega_N")


@settings(max_examples=100, deadline=None)
@given(graphs(1, 6), graphs(1, 6))
def test_disjoint_union_relations(g, h):
    first, second = full_report(g).values, full_report(h).values
    union = full_report(disjoint_union(g, h)).values
    expected = {name: first[name] + second[name] for name in SUM}
    expected.update((name, max(first[name], second[name])) for name in MAX)
    expected["delta"] = min(first["delta"], second["delta"])
    if "gamma_t" in first and "gamma_t" in second:
        expected["gamma_t"] = first["gamma_t"] + second["gamma_t"]
    assert union == expected


@pytest.mark.parametrize("s", range(3))
def test_t10_against_the_solver(s):
    for n in range(13, 65):
        t = random_tree(n, 1000 * n + s)
        delta = max_degree(t)
        assert open_packing_partition_number(t)[0] == delta, n
        [row] = check_T10(GraphFacts(t))
        assert (row.verdict, row.lhs, row.rhs) == (EQUALITY, delta, delta), n
