"""Optimality checked by solvers that share no code with openpack's searches.

The certificate checks prove that each returned witness is valid; these tests
check that its value is optimal past brute-force range.  gamma and gamma_t of
the 37 medium graphs (the perfbench ``medium-reports`` corpus) are solved
again as set-cover ILPs by scipy's HiGHS, and rho, rho_o and omega_N of fixed
G(n, p) graphs of up to 30 vertices are clique numbers that networkx's
``max_weight_clique`` finds on transforms built by the pair-scan oracles.
Each test is skipped where scipy or networkx is not installed.
"""

import pytest

import oracles
from openpack.graph import Graph, complement, random_graph, star
from openpack.products import corona
from openpack.solvers import (
    domination_number,
    omega_of_two_step,
    open_packing_number,
    packing_number,
    total_domination_number,
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
