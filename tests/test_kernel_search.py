"""The kernels' bit-mask search state, clique-number bound and clique-cover bound.

The colouring search keeps its saturation as bit-sliced colour masks and the
chromatic driver raises its lower bound to the exact clique number; the
independent-set search also prunes on a greedy clique cover.  None of them
changes the branching, child order or tie-breaking, so every (k, labels)
and (size, mask) must stay byte-identical to the count-based search frozen
in ``oracles.reference_chromatic`` and ``oracles.reference_max_independent_set``.
"""

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from openpack.graph import Graph, complement, random_graph
from openpack.harness import all_graphs_upto
from openpack.solvers import is_opp, open_packing_partition_number
from openpack.transforms import square, two_step
from test_chromatic_components import ON_KERNEL

pytestmark = pytest.mark.usefixtures("search_deadline")


def assert_matches_reference(kern, g: Graph) -> None:
    adj = list(g.adj)
    assert kern.chromatic_number(g.n, adj) == \
        oracles.reference_chromatic(g.n, adj), (g.n, g.adj)
    assert kern.max_independent_set(g.n, adj) == \
        oracles.reference_max_independent_set(g.n, adj), (g.n, g.adj)


@ON_KERNEL
class TestSearchParity:
    def test_transforms_upto_5(self, kern):
        for g in all_graphs_upto(5):
            t = two_step(g)
            for h in (t, square(g), complement(t)):
                assert_matches_reference(kern, h)

    @settings(max_examples=80, deadline=None)
    @given(graphs(7, 24))
    def test_random_graphs(self, kern, g):
        assert_matches_reference(kern, g)

    @pytest.mark.parametrize("n,p,seed", [
        (40, 0.1, 0), (56, 0.1, 1), (48, 0.3, 1), (56, 0.3, 2), (40, 0.5, 1), (56, 0.5, 2),
    ])
    def test_medium_random_graphs(self, kern, n, p, seed):
        assert_matches_reference(kern, random_graph(n, p, seed))


class TestFormerlySlowInstances:
    def test_two_step_of_g_40_01_4(self):
        # greedy clique 5, clique number = greedy bound = 10: the clique-number
        # bound returns the greedy colouring without a failing depth
        g = random_graph(40, 0.1, 4)
        po, labeling = open_packing_partition_number(g)
        assert po == 10
        assert is_opp(g, labeling)
        t = two_step(g)
        assert (po, list(labeling.labels)) == oracles.reference_chromatic(t.n, list(t.adj))
