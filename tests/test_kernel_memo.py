"""The kernel memo of ``openpack._kernels_py``: what it shares, for how long,
and that a result read from it is the one a fresh search gives.

Inside a ``memo_scope()`` both kernels answer a repeated input from one
bounded memo; ``harness.run_corpus`` and ``solvers.full_report`` each open
one.  Outside any scope the kernels keep nothing.
"""

import gc

import pytest

import oracles
from openpack import _kernels_py
from openpack._kernels_py import MEMO_MAX, memo_scope
from openpack.graph import GraphError, _components, complement, cycle, random_graph
from openpack.harness import all_graphs_upto, run_corpus
from openpack.solvers import (
    SolverCapError,
    full_report,
    omega_of_two_step,
    open_packing_partition_number,
    two_distance_chromatic,
)
from openpack.transforms import two_step

pytestmark = pytest.mark.usefixtures("search_deadline")


@pytest.fixture
def raw_searches(monkeypatch):
    """The inputs of every raw search the kernels run, by kind, in call order."""
    seen = {"chromatic": [], "mis": []}
    for kind, name in (("chromatic", "_chromatic"), ("mis", "_max_independent_set")):
        search = getattr(_kernels_py, name)

        def counted(n, adj, search=search, calls=seen[kind]):
            calls.append(tuple(adj))
            return search(n, adj)

        monkeypatch.setattr(_kernels_py, name, counted)
    return seen


def no_memo() -> bool:
    return _kernels_py._memo is None and _kernels_py._scopes == 0


class TestSharing:
    def test_full_report_runs_one_clique_search_on_the_two_step_graph(self, raw_searches):
        g = random_graph(8, 0.4, 1)
        n_g = two_step(g)
        # the p_o driver needs the exact clique bound here: the two-step graph
        # is connected and its greedy clique is below its greedy colouring
        levels = _kernels_py._degree_levels(n_g.n, n_g.adj)
        assert len(_components(n_g.adj)) == 1
        assert (len(_kernels_py._greedy_clique(n_g.adj, levels))
                < _kernels_py._greedy_coloring(n_g.n, n_g.adj, levels)[0])
        report = full_report(g)
        # the driver's clique bound and omega_N are one search on co-N(G)
        assert raw_searches["mis"].count(complement(n_g).adj) == 1
        assert report.values["omega_N"] == 4
        assert no_memo()

    def test_outside_a_scope_nothing_is_kept(self, raw_searches):
        g = cycle(7)
        first = _kernels_py.chromatic_number(g.n, g.adj)
        assert _kernels_py.chromatic_number(g.n, g.adj) == first
        assert _kernels_py.max_independent_set(g.n, g.adj) == (3, 0b10101)
        assert _kernels_py.max_independent_set(g.n, g.adj) == (3, 0b10101)
        assert raw_searches["chromatic"].count(g.adj) == 2
        assert raw_searches["mis"].count(g.adj) == 2
        assert no_memo()

    def test_a_scope_runs_each_input_once(self, raw_searches):
        g = cycle(7)
        with memo_scope():
            results = [(_kernels_py.chromatic_number(g.n, list(g.adj)),
                        _kernels_py.max_independent_set(g.n, g.adj)) for _ in range(3)]
        assert results == [results[0]] * 3
        assert raw_searches["chromatic"].count(g.adj) == 1
        assert raw_searches["mis"].count(g.adj) == 1

    def test_nested_scopes_share_the_outer_memo(self, raw_searches):
        g = random_graph(8, 0.4, 1)
        with memo_scope():
            memo = _kernels_py._memo
            full_report(g)
            assert _kernels_py._memo is memo and memo
            searches = len(raw_searches["chromatic"]) + len(raw_searches["mis"])
            full_report(g)
            assert len(raw_searches["chromatic"]) + len(raw_searches["mis"]) == searches
        assert no_memo()

    def test_only_flat_tuples_of_ints_are_stored(self):
        with memo_scope():
            full_report(random_graph(10, 0.35, 3))
            entries = [x for entry in _kernels_py._memo.items() for x in entry]
            # so the collector untracks every entry at its first pass
            gc.collect(0)
            assert entries and not any(map(gc.is_tracked, entries))
        assert all(type(x) is tuple and all(type(v) is int for v in x) for x in entries)


class TestScope:
    def test_gone_after_an_exhausted_run(self):
        rows = list(run_corpus(["T1", "T9"], all_graphs_upto(4)))
        assert rows and no_memo()

    def test_open_while_running_and_gone_when_closed_early(self):
        rows = run_corpus(["T1"], all_graphs_upto(4))
        next(rows)
        assert _kernels_py._memo is not None
        rows.close()
        assert no_memo()

    def test_gone_when_the_corpus_raises(self):
        def corpus():
            yield cycle(5)
            raise GraphError("corpus broke")

        with pytest.raises(GraphError, match="corpus broke"):
            list(run_corpus(["T1"], corpus()))
        assert no_memo()

    def test_gone_when_a_check_raises(self, monkeypatch):
        monkeypatch.setenv("OPENPACK_MAX_N", "2")
        with pytest.raises(SolverCapError):
            list(run_corpus(["T1"], all_graphs_upto(3)))
        assert no_memo()

    def test_gone_after_full_report(self):
        full_report(cycle(6))
        assert no_memo()

    def test_cap_still_refuses_a_cached_input(self, monkeypatch):
        g = cycle(6)
        with memo_scope():
            assert open_packing_partition_number(g)[0] == 3
            monkeypatch.setenv("OPENPACK_MAX_N", "5")
            with pytest.raises(SolverCapError, match="6 vertices"):
                open_packing_partition_number(g)


class TestHits:
    def test_a_hit_equals_a_fresh_solve_for_every_graph_n_le_5(self, raw_searches):
        graphs = list(all_graphs_upto(5))
        fresh = [(_kernels_py.chromatic_number(g.n, g.adj),
                  _kernels_py.max_independent_set(g.n, g.adj)) for g in graphs]

        def searches():
            return len(raw_searches["chromatic"]) + len(raw_searches["mis"])

        with memo_scope():
            for g, (chi, mis) in zip(graphs, fresh):
                missed = _kernels_py.chromatic_number(g.n, g.adj)
                missed[1].append(0)  # a caller's change to its list stays its own
                _kernels_py.max_independent_set(g.n, g.adj)
                before = searches()
                assert _kernels_py.chromatic_number(g.n, list(g.adj)) == chi
                assert _kernels_py.max_independent_set(g.n, list(g.adj)) == mis
                assert searches() == before  # both were hits
            memo = _kernels_py._memo
            # 1,099 graphs, two kinds: the memo is full and dropped the oldest
            assert len(memo) == MEMO_MAX < 2 * len(graphs)
            assert (0, graphs[0].n, *graphs[0].adj) not in memo

    def test_two_step_values_match_brute_force_for_every_graph_n_le_5(self):
        # one scope, as in a run: the hits must give the brute-force values too
        with memo_scope():
            for g in all_graphs_upto(5):
                assert open_packing_partition_number(g)[0] == \
                    oracles.brute_open_packing_partition_number(g)
                assert two_distance_chromatic(g)[0] == oracles.brute_two_distance_chromatic(g)
                assert omega_of_two_step(g)[0] == oracles.brute_clique_number(two_step(g))
