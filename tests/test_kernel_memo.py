"""The kernel memo of a run: what it shares, for how long, and that a result
read from it is the one a fresh search gives.

Both kernels take an optional memo and answer a repeated input from it.  A
``solvers.Run`` owns one, every ``GraphFacts`` carries a run, and the facts
that one ``harness.run_corpus`` or ``solvers.full_report`` call builds share
one run.  A kernel call with no memo keeps nothing, and a run is freed with
the last facts that use it: its scope.
"""

import gc
import weakref
from collections import OrderedDict

import pytest

import oracles
from openpack import _kernels_py, harness, solvers
from openpack._kernels_py import MEMO_MAX
from openpack.graph import GraphError, _components, complement, cycle, random_graph
from openpack.harness import all_graphs_upto, run_corpus
from openpack.solvers import GraphFacts, Run, SolverCapError, full_report
from openpack.transforms import two_step

pytestmark = pytest.mark.usefixtures("search_deadline")

# the invariants a kernel solves
KERNEL_SOLVED = ("chi", "p_o", "chi2", "rho", "rho_o", "omega_N")


@pytest.fixture
def raw_searches(monkeypatch):
    """The inputs of every raw search the kernels run, by kind, in call order."""
    seen = {"chromatic": [], "mis": []}
    chromatic, mis = _kernels_py._chromatic, _kernels_py._max_independent_set

    def counted_chromatic(n, adj, memo):
        seen["chromatic"].append(tuple(adj))
        return chromatic(n, adj, memo)

    def counted_mis(n, adj):
        seen["mis"].append(tuple(adj))
        return mis(n, adj)

    monkeypatch.setattr(_kernels_py, "_chromatic", counted_chromatic)
    monkeypatch.setattr(_kernels_py, "_max_independent_set", counted_mis)
    return seen


@pytest.fixture
def runs(monkeypatch):
    """A weak reference to every run made, in order."""
    made = []

    class Recorded(Run):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(solvers, "Run", Recorded)
    monkeypatch.setattr(harness, "Run", Recorded)
    return made


def searches(raw_searches) -> int:
    return len(raw_searches["chromatic"]) + len(raw_searches["mis"])


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

    def test_omega_N_after_p_o_reuses_the_driver_clique_search(self, raw_searches):
        # facts built alone carry a run of their own, so they share its memo too
        g = random_graph(8, 0.4, 1)
        facts = GraphFacts(g)
        facts.p_o
        assert facts.omega_N[0] == 4
        assert raw_searches["mis"].count(complement(two_step(g)).adj) == 1

    def test_outside_a_scope_nothing_is_kept(self, raw_searches):
        # a kernel call with no memo searches every time
        g = cycle(7)
        first = _kernels_py.chromatic_number(g.n, g.adj)
        assert _kernels_py.chromatic_number(g.n, g.adj) == first
        assert _kernels_py.max_independent_set(g.n, g.adj) == (3, 0b10101)
        assert _kernels_py.max_independent_set(g.n, g.adj) == (3, 0b10101)
        assert raw_searches["chromatic"].count(g.adj) == 2
        assert raw_searches["mis"].count(g.adj) == 2

    def test_a_scope_runs_each_input_once(self, raw_searches):
        # calls given one memo search each input once
        g = cycle(7)
        memo = OrderedDict()
        results = [(_kernels_py.chromatic_number(g.n, list(g.adj), memo),
                    _kernels_py.max_independent_set(g.n, g.adj, memo)) for _ in range(3)]
        assert results == [results[0]] * 3
        assert raw_searches["chromatic"].count(g.adj) == 1
        assert raw_searches["mis"].count(g.adj) == 1

    def test_facts_of_one_run_share_its_memo(self, raw_searches):
        g = random_graph(8, 0.4, 1)
        run = Run()
        first = GraphFacts(g, run)
        values = [getattr(first, name) for name in KERNEL_SOLVED]
        assert first.run is run and run.memo
        done = searches(raw_searches)
        second = GraphFacts(g, run)
        assert [getattr(second, name) for name in KERNEL_SOLVED] == values
        assert searches(raw_searches) == done
        # another run starts empty
        GraphFacts(g).p_o
        assert searches(raw_searches) > done

    def test_only_flat_tuples_of_ints_are_stored(self):
        facts = GraphFacts(random_graph(10, 0.35, 3))
        for name in KERNEL_SOLVED:
            getattr(facts, name)
        entries = [x for entry in facts.run.memo.items() for x in entry]
        # so the collector untracks every entry at its first pass
        gc.collect(0)
        assert entries and not any(map(gc.is_tracked, entries))
        assert all(type(x) is tuple and all(type(v) is int for v in x) for x in entries)


class TestScope:
    """A run is freed, memo and all, as soon as its call is done with it; it
    refers to no facts, so no collection is needed."""

    def test_gone_after_an_exhausted_run(self, runs):
        rows = list(run_corpus(["T1", "T9"], all_graphs_upto(4)))
        assert rows and len(runs) == 1 and runs[0]() is None

    def test_open_while_running_and_gone_when_closed_early(self, runs):
        rows = run_corpus(["T1"], all_graphs_upto(4))
        next(rows)
        run, = runs
        assert run().memo
        rows.close()
        assert run() is None

    def test_gone_when_the_corpus_raises(self, runs):
        def corpus():
            yield cycle(5)
            raise GraphError("corpus broke")

        with pytest.raises(GraphError, match="corpus broke"):
            list(run_corpus(["T1"], corpus()))
        assert len(runs) == 1 and runs[0]() is None

    def test_gone_when_a_check_raises(self, monkeypatch, runs):
        monkeypatch.setenv("OPENPACK_MAX_N", "2")
        with pytest.raises(SolverCapError):
            list(run_corpus(["T1"], all_graphs_upto(3)))
        assert len(runs) == 1 and runs[0]() is None

    def test_gone_after_full_report(self, runs):
        full_report(cycle(6))
        assert len(runs) == 1 and runs[0]() is None

    def test_cap_still_refuses_a_cached_input(self, monkeypatch):
        g = cycle(6)
        run = Run()
        assert GraphFacts(g, run).p_o[0] == 3
        monkeypatch.setenv("OPENPACK_MAX_N", "5")
        with pytest.raises(SolverCapError, match="6 vertices"):
            GraphFacts(g, run).p_o


class TestHits:
    def test_a_hit_equals_a_fresh_solve_for_every_graph_n_le_5(self, raw_searches):
        graphs = list(all_graphs_upto(5))
        fresh = [(_kernels_py.chromatic_number(g.n, g.adj),
                  _kernels_py.max_independent_set(g.n, g.adj)) for g in graphs]
        memo = OrderedDict()
        for g, (chi, mis) in zip(graphs, fresh):
            missed = _kernels_py.chromatic_number(g.n, g.adj, memo)
            missed[1].append(0)  # a caller's change to its list stays its own
            _kernels_py.max_independent_set(g.n, g.adj, memo)
            before = searches(raw_searches)
            assert _kernels_py.chromatic_number(g.n, list(g.adj), memo) == chi
            assert _kernels_py.max_independent_set(g.n, list(g.adj), memo) == mis
            assert searches(raw_searches) == before  # both were hits
        # 1,099 graphs, two kinds: the memo is full and dropped the oldest
        assert len(memo) == MEMO_MAX < 2 * len(graphs)
        assert (0, graphs[0].n, *graphs[0].adj) not in memo

    def test_two_step_values_match_brute_force_for_every_graph_n_le_5(self):
        # one run, as in a corpus: the hits must give the brute-force values too
        run = Run()
        for g in all_graphs_upto(5):
            facts = GraphFacts(g, run)
            assert facts.p_o[0] == oracles.brute_open_packing_partition_number(g)
            assert facts.chi2[0] == oracles.brute_two_distance_chromatic(g)
            assert facts.omega_N[0] == oracles.brute_clique_number(two_step(g))
