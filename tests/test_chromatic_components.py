"""The chromatic driver's component pre-pass.

On a disconnected graph the driver raises its lower bound to the largest
chromatic number of a component before deepening over the whole graph.  The
first depth that succeeds, and its first coloring, are those of the driver
without the pre-pass, so every witness must stay byte-identical to
``oracles.reference_chromatic``.
"""

import json

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from openpack import _kernels_py
from openpack.graph import Graph, disjoint_union, max_degree, star
from openpack.harness import all_graphs_upto, pair_grid
from openpack.products import cartesian, corona, direct
from openpack.solvers import is_opp, open_packing_partition_number
from openpack.transforms import square, two_step
from test_cli import run_cli

try:
    from openpack import _kernels as _compiled
except ImportError:
    _compiled = None

KERNELS = [_kernels_py] + ([_compiled] if _compiled is not None else [])
KERNEL_IDS = [k.BACKEND for k in KERNELS]


def assert_matches_reference(kern, g):
    assert kern.chromatic_number(g.n, list(g.adj)) == \
        oracles.reference_chromatic(g.n, list(g.adj)), g


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
class TestWitnessParity:
    def test_two_step_and_square_upto_5(self, kern):
        for g in all_graphs_upto(5):
            assert_matches_reference(kern, two_step(g))
            assert_matches_reference(kern, square(g))

    def test_two_step_of_products_over_pair_grid(self, kern):
        for g, h in pair_grid(3, 3):
            for product in (cartesian, direct, corona):
                assert_matches_reference(kern, two_step(product(g, h)[0]))

    @settings(max_examples=60, deadline=None)
    @given(first=graphs(1, 10), second=graphs(1, 10))
    def test_disjoint_unions(self, kern, first, second):
        assert_matches_reference(kern, disjoint_union(first, second))


class TestFormerlySlowInstances:
    def test_corona_of_star_with_edgeless(self):
        # a 20-vertex tree whose two-step graph splits into two components
        g, _ = corona(star(4), Graph(4, [0] * 4))
        po, labeling = open_packing_partition_number(g)
        assert po == max_degree(g) == 7
        assert is_opp(g, labeling)

    def test_t7_on_the_4x4_pair_grid(self):
        code, out = run_cli("verify", "--theorem", "T7", "--pair-grid", "4", "4")
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 5625
        assert sum(r["verdict"] == "violated" for r in rows) == 736
