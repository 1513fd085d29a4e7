import random
import signal
import textwrap

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs, run_python
from openpack.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    enumerate_all_graphs,
    from_edge_list,
    path,
    random_graph,
    star,
)
from openpack.solvers import (
    CertificateError,
    SolverCapError,
    UndefinedInvariantError,
    VertexLabeling,
    VertexSet,
    chromatic_number,
    domination_number,
    full_report,
    is_common_neighbor_clique,
    is_open_packing,
    is_opp,
    is_packing,
    max_independent_set,
    omega_of_two_step,
    open_packing_number,
    open_packing_partition_number,
    packing_number,
    split_open_packing,
    total_domination_number,
    two_distance_chromatic,
)

K1 = Graph(1, (0,))


class TestVertexTypes:
    def test_vertex_set(self):
        s = VertexSet.of([0, 3, 5])
        assert s.bits == 0b101001 and s.size == 3 and s.members() == [0, 3, 5]

    def test_labeling_validation(self):
        VertexLabeling((1, 2, 1), 2)
        with pytest.raises(ValueError):
            VertexLabeling((1, 3), 3)  # label 2 unused
        with pytest.raises(ValueError):
            VertexLabeling((0, 1), 1)
        with pytest.raises(ValueError):
            VertexLabeling((), 1)

    def test_classes(self):
        lab = VertexLabeling((1, 2, 1, 2), 2)
        assert lab.classes() == [0b0101, 0b1010]


class TestChromaticKernel:
    def test_examples(self):
        assert chromatic_number(cycle(5))[0] == 3
        assert chromatic_number(complete_bipartite(3, 3))[0] == 2
        assert chromatic_number(K1)[0] == 1
        assert chromatic_number(from_edge_list(4, []))[0] == 1

    def test_two_triangles(self):
        from openpack.graph import disjoint_union

        g = disjoint_union(complete(3), complete(3))
        assert chromatic_number(g)[0] == 3

    def test_exhaustive_vs_oracle_n_le_5(self):
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                k, lab = chromatic_number(g)
                assert k == oracles.brute_chromatic(g)
                assert lab.k == k

    def test_certificate_is_proper(self):
        for seed in range(20):
            g = random_graph(12, 0.5, seed)
            k, lab = chromatic_number(g)
            assert all(lab.labels[u] != lab.labels[v] for u, v in g.edges())
            assert len(set(lab.labels)) == k

    def test_deterministic(self):
        g = random_graph(14, 0.5, 3)
        assert chromatic_number(g) == chromatic_number(g)


class TestIndependenceKernel:
    def test_examples(self):
        assert max_independent_set(cycle(5))[0] == 2
        assert max_independent_set(complete(6))[0] == 1
        assert max_independent_set(path(4))[0] == 2

    def test_random_vs_subset_enumeration(self):
        rng = random.Random(9)
        for _ in range(12):
            n = rng.randrange(1, 17)
            g = random_graph(n, rng.random(), rng.randrange(10 ** 6))
            size, cert = max_independent_set(g)
            assert size == oracles.brute_max_independent_set(g)
            assert cert.size == size
            assert all(not g.adj[v] & cert.bits for v in cert.members())

    def test_deterministic(self):
        g = random_graph(16, 0.4, 5)
        assert max_independent_set(g) == max_independent_set(g)


class TestPackingNumbers:
    def test_open_packing_complete(self):
        for n in (3, 4, 5, 6):
            assert open_packing_number(complete(n))[0] == 1

    def test_open_packing_k2(self):
        assert open_packing_number(from_edge_list(2, [(0, 1)]))[0] == 2

    def test_open_packing_star(self):
        assert open_packing_number(star(5))[0] == 2

    def test_open_packing_c4(self):
        assert open_packing_number(cycle(4))[0] == 2

    def test_packing_examples(self):
        assert packing_number(complete(5))[0] == 1
        assert packing_number(path(4))[0] == 2
        assert packing_number(cycle(6))[0] == 2

    def test_exhaustive_vs_oracle_n_le_5(self):
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                assert open_packing_number(g)[0] == oracles.brute_open_packing_number(g)
                assert packing_number(g)[0] == oracles.brute_packing_number(g)


class TestPartitionNumbers:
    def test_po_complete(self):
        for n in (3, 4, 5, 6):
            assert open_packing_partition_number(complete(n))[0] == n

    def test_po_cycles_multiple_of_four(self):
        assert open_packing_partition_number(cycle(4))[0] == 2
        assert open_packing_partition_number(cycle(8))[0] == 2

    def test_po_c5(self):
        assert open_packing_partition_number(cycle(5))[0] == 3

    def test_po_empty(self):
        assert open_packing_partition_number(from_edge_list(4, []))[0] == 1

    def test_chi2_complete(self):
        for n in (2, 4, 6):
            assert two_distance_chromatic(complete(n))[0] == n

    def test_chi2_balanced_bipartite(self):
        for n in (2, 3):
            assert two_distance_chromatic(complete_bipartite(n, n))[0] == 2 * n

    def test_chi2_p3(self):
        assert two_distance_chromatic(path(3))[0] == 3

    def test_sampled_vs_oracle(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randrange(2, 7)
            g = random_graph(n, rng.random(), rng.randrange(10 ** 6))
            assert (
                open_packing_partition_number(g)[0]
                == oracles.brute_open_packing_partition_number(g)
            )
            assert (
                two_distance_chromatic(g)[0]
                == oracles.brute_two_distance_chromatic(g)
            )

    def test_certificates_are_partitions(self):
        for seed in range(10):
            g = random_graph(10, 0.4, seed)
            k, lab = open_packing_partition_number(g)
            assert is_opp(g, lab)
            k2, lab2 = two_distance_chromatic(g)
            assert all(is_packing(g, mask) for mask in lab2.classes())


class TestOmega:
    def test_star(self):
        for n in (4, 5, 7):
            assert omega_of_two_step(star(n))[0] == n - 1

    def test_cycles(self):
        assert omega_of_two_step(cycle(6))[0] == 3
        assert omega_of_two_step(cycle(4))[0] == 2

    def test_vs_oracle(self):
        from openpack.transforms import two_step

        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(2, 7)
            g = random_graph(n, rng.random(), rng.randrange(10 ** 6))
            assert omega_of_two_step(g)[0] == oracles.brute_clique_number(two_step(g))


class TestDomination:
    def test_examples(self):
        assert domination_number(complete(5))[0] == 1
        assert domination_number(path(4))[0] == 2
        assert total_domination_number(cycle(4))[0] == 2

    def test_exhaustive_vs_oracle_n_le_5(self):
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                assert domination_number(g)[0] == oracles.brute_domination(g)
                expected = oracles.brute_total_domination(g)
                if expected is None:
                    with pytest.raises(UndefinedInvariantError):
                        total_domination_number(g)
                else:
                    assert total_domination_number(g)[0] == expected

    def test_certificates(self):
        g = random_graph(10, 0.3, 4)
        size, cert = domination_number(g)
        closed = [g.adj[v] | 1 << v for v in range(g.n)]
        assert all(closed[v] & cert.bits for v in range(g.n))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(UndefinedInvariantError):
            total_domination_number(from_edge_list(3, [(0, 1)]))


class TestPredicates:
    def test_two_leaves_of_star(self):
        assert not is_open_packing(star(4), VertexSet.of([1, 2]))

    def test_antipodal_in_c4(self):
        assert is_open_packing(cycle(4), VertexSet.of([0, 1]))
        assert not is_packing(cycle(4), VertexSet.of([0, 1]))

    def test_po_certificate_is_opp(self):
        g = random_graph(9, 0.5, 8)
        _, lab = open_packing_partition_number(g)
        assert is_opp(g, lab)

    def test_is_opp_detects_conflict(self):
        # two same-labeled leaves adjacent to the star center
        lab = VertexLabeling((1, 2, 2, 1), 2)
        assert not is_opp(star(4), lab)

    def test_is_opp_wrong_length(self):
        with pytest.raises(ValueError):
            is_opp(star(4), VertexLabeling((1, 2), 2))

    @given(graphs(min_n=2, max_n=7))
    @settings(max_examples=60)
    def test_opp_iff_all_classes_open_packings(self, g):
        rng = random.Random(g.n * 1000 + g.m)
        k = rng.randrange(1, g.n + 1)
        labels = [rng.randrange(1, k + 1) for _ in range(g.n)]
        used = sorted(set(labels))
        remap = {lab: i + 1 for i, lab in enumerate(used)}
        lab = VertexLabeling(tuple(remap[x] for x in labels), len(used))
        expected = all(
            oracles.set_is_open_packing(g, tuple(v for v in range(g.n) if lab.labels[v] == c))
            for c in range(1, lab.k + 1)
        )
        assert is_opp(g, lab) == expected


class TestPredicateFit:
    """Every predicate decides whether a certificate fits its graph by one
    rule: a labeling has exactly one label per vertex, a set lies within
    0..n-1, and anything else raises ValueError."""

    LABELINGS = ("chi", "p_o", "chi2")

    @pytest.mark.parametrize("g", [path(1), path(3), cycle(5), complete(4), star(6)],
                             ids=lambda g: f"{g.n}-{g.m}")
    def test_misfit_raises(self, g):
        from openpack import solvers

        predicates = {**solvers.PREDICATES, "independent": solvers._is_independent}
        for name, predicate in predicates.items():
            if name in self.LABELINGS:
                misfits = [VertexLabeling((1,) * n, 1) for n in (g.n - 1, g.n + 1) if n]
            else:
                misfits = [VertexSet(1 << g.n), VertexSet(1 << g.n | 1), 1 << g.n]
            for cert in misfits:
                with pytest.raises(ValueError):
                    predicate(g, cert)

    def test_packing_partition_matches_the_per_class_definition(self):
        from itertools import product

        from openpack.solvers import is_packing_partition

        checked = 0
        for n in range(1, 5):
            labelings = [VertexLabeling(labels, max(labels))
                         for labels in product(range(1, n + 1), repeat=n)
                         if set(labels) == set(range(1, max(labels) + 1))]
            for g in enumerate_all_graphs(n):
                for lab in labelings:
                    # the old definition: every class is a packing
                    expected = all(is_packing(g, mask) for mask in lab.classes())
                    assert is_packing_partition(g, lab) == expected, (g.adj, lab)
                    checked += 1
        assert checked == 1 * 1 + 2 * 3 + 8 * 13 + 64 * 75

    def test_opp_matches_the_per_class_definition(self):
        from itertools import product

        checked = 0
        for n in range(1, 5):
            labelings = [VertexLabeling(labels, max(labels))
                         for labels in product(range(1, n + 1), repeat=n)
                         if set(labels) == set(range(1, max(labels) + 1))]
            for g in enumerate_all_graphs(n):
                for lab in labelings:
                    # the definition: every class is an open packing
                    expected = all(is_open_packing(g, mask) for mask in lab.classes())
                    assert is_opp(g, lab) == expected, (g.adj, lab)
                    checked += 1
        assert checked == 1 * 1 + 2 * 3 + 8 * 13 + 64 * 75


class TestCommonNeighborClique:
    """A clique of N(G): every pair of members shares a neighbor."""

    def test_hub_neighbourhood_of_a_large_star_is_one_and(self):
        # the 8.4 million pairs of leaves take about 0.6 s to scan; the AND of
        # their rows, which is the hub, a few ms
        g = star(4096)

        def expire(signum, frame):
            raise TimeoutError("the star's leaves were scanned pair by pair")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            assert is_common_neighbor_clique(g, g.adj[0])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_pairs_with_different_common_neighbours(self):
        # 0, 1, 2 pairwise share 3, 4 and 5, and no vertex sees all three
        g = from_edge_list(6, [(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)])
        assert is_common_neighbor_clique(g, VertexSet.of([0, 1, 2]))

    def test_pair_without_a_common_neighbour_refused(self):
        g = from_edge_list(6, [(0, 3), (1, 3), (1, 4), (2, 4), (0, 5)])
        assert not is_common_neighbor_clique(g, VertexSet.of([0, 1, 2]))

    def test_vertex_outside_the_graph_refused(self):
        with pytest.raises(ValueError, match="outside 0..2"):
            is_common_neighbor_clique(path(3), 1 << 3)

    def test_matches_the_pairwise_definition(self):
        checked = 0
        for n in range(1, 6):
            for g in enumerate_all_graphs(n):
                for mask in range(1 << n):
                    members = [v for v in range(n) if mask >> v & 1]
                    expected = all(g.adj[u] & g.adj[v]
                                   for i, u in enumerate(members) for v in members[i + 1:])
                    assert is_common_neighbor_clique(g, mask) == expected, (g.adj, mask)
                    checked += 1
        assert checked == 2 + 2 * 4 + 8 * 8 + 64 * 16 + 1024 * 32


class TestSplitOpenPacking:
    def test_independent_set_unsplit(self):
        g = cycle(6)
        s = VertexSet.of([0, 3])
        p1, p2 = split_open_packing(g, s)
        assert p1.bits == s.bits and p2.bits == 0

    def test_edge_in_c4(self):
        p1, p2 = split_open_packing(cycle(4), VertexSet.of([0, 1]))
        assert p1.size == 1 and p2.size == 1
        assert is_packing(cycle(4), p1) and is_packing(cycle(4), p2)

    def test_not_an_open_packing_rejected(self):
        with pytest.raises(ValueError):
            split_open_packing(star(4), VertexSet.of([1, 2]))

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=80)
    def test_split_yields_packings(self, g):
        _, cert = open_packing_number(g)
        p1, p2 = split_open_packing(g, cert)
        assert p1.bits | p2.bits == cert.bits
        assert not p1.bits & p2.bits
        assert is_packing(g, p1) and is_packing(g, p2)

    def test_doubling_gives_two_distance_coloring(self):
        # splitting every class of an optimal partition yields a valid
        # distance-2 coloring with at most twice as many classes
        for seed in range(10):
            g = random_graph(8, 0.4, seed)
            k, lab = open_packing_partition_number(g)
            parts = []
            for mask in lab.classes():
                p1, p2 = split_open_packing(g, VertexSet(mask))
                parts.extend(p for p in (p1, p2) if p.bits)
            assert sum(p.bits for p in parts) == (1 << g.n) - 1
            assert all(is_packing(g, p) for p in parts)
            # a valid packing partition needs at least chi2 classes
            assert two_distance_chromatic(g)[0] <= len(parts) <= 2 * k


class TestFullReport:
    def test_k4(self):
        rep = full_report(complete(4))
        assert rep.values["p_o"] == 4
        assert rep.values["chi2"] == 4
        assert rep.values["rho_o"] == 1
        assert rep.values["rho"] == 1
        assert rep.values["gamma"] == 1
        assert rep.values["gamma_t"] == 2

    def test_p2(self):
        rep = full_report(from_edge_list(2, [(0, 1)]))
        assert rep.values["p_o"] == 1
        assert rep.values["rho_o"] == 2
        assert rep.values["gamma_t"] == 2

    def test_c4(self):
        rep = full_report(cycle(4))
        assert rep.values["p_o"] == 2
        assert rep.values["chi2"] == 4
        assert rep.values["rho_o"] == 2

    def test_gamma_t_omitted_with_isolated_vertices(self):
        rep = full_report(from_edge_list(3, [(0, 1)]))
        assert "gamma_t" not in rep.values

    def test_certificates_optional(self):
        rep = full_report(cycle(5), with_certificates=False)
        assert rep.certificates == {}


class TestCaps:
    def test_hard_cap(self):
        big = random_graph(65, 0.05, 1)
        with pytest.raises(SolverCapError):
            chromatic_number(big)
        # full_report leaves the cap to its first solve, which checks before any work
        with pytest.raises(SolverCapError, match="instance has 65 vertices, exact solvers cap at 64"):
            full_report(big)

    def test_env_cap_lowers(self, monkeypatch):
        monkeypatch.setenv("OPENPACK_MAX_N", "5")
        with pytest.raises(SolverCapError):
            chromatic_number(cycle(6))
        assert chromatic_number(cycle(5))[0] == 3

    def test_env_cap_never_raises_limit(self, monkeypatch):
        monkeypatch.setenv("OPENPACK_MAX_N", "500")
        big = random_graph(65, 0.05, 1)
        with pytest.raises(SolverCapError):
            chromatic_number(big)

    def test_env_cap_bad_value(self, monkeypatch):
        monkeypatch.setenv("OPENPACK_MAX_N", "many")
        with pytest.raises(SolverCapError):
            chromatic_number(cycle(5))

    @pytest.mark.parametrize("raw", ["-3", "0"])
    def test_env_cap_must_be_positive(self, monkeypatch, raw):
        monkeypatch.setenv("OPENPACK_MAX_N", raw)
        with pytest.raises(SolverCapError, match="must be a positive integer"):
            chromatic_number(cycle(5))

    def test_one_report_reads_the_cap_once(self, monkeypatch):
        from openpack import solvers

        reads = []
        cap = solvers.solver_cap
        monkeypatch.setattr(solvers, "solver_cap", lambda: reads.append(1) or cap())
        assert len(full_report(cycle(6)).values) == 12  # every invariant, gamma_t too
        assert len(reads) == 1


class TestCertificateChecks:
    # kernels that return a wrong certificate for any graph with an edge
    BAD_KERNEL = textwrap.dedent("""
        import sys
        from openpack import solvers
        from openpack.graph import path

        class BadKernel:
            BACKEND = "bad"

            @staticmethod
            def chromatic_number(n, adj, memo=None):
                return 1, [1] * n

            @staticmethod
            def max_independent_set(n, adj, memo=None):
                return n, (1 << n) - 1

        solvers._kernel = BadKernel
        for solve in (solvers.chromatic_number, solvers.max_independent_set,
                      solvers.open_packing_partition_number, solvers.two_distance_chromatic,
                      solvers.open_packing_number, solvers.packing_number,
                      solvers.omega_of_two_step):
            try:
                solve(path(3))
            except solvers.CertificateError:
                print(solve.__name__, "rejected")
        print("optimize", sys.flags.optimize)
    """)

    def test_bad_kernel_rejected_under_optimize(self):
        proc = run_python(self.BAD_KERNEL, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [
            "chromatic_number rejected", "max_independent_set rejected",
            "open_packing_partition_number rejected", "two_distance_chromatic rejected",
            "open_packing_number rejected", "packing_number rejected",
            "omega_of_two_step rejected", "optimize 1", ""]

    # a domination search that returns {0}, which neither dominates nor totally
    # dominates the path on 3 vertices
    BAD_COVER = textwrap.dedent("""
        import sys
        from openpack import solvers
        from openpack.graph import path

        solvers._min_cover = lambda n, cover, reach, floor=0: (1, 1)
        for solve in (solvers.domination_number, solvers.total_domination_number):
            try:
                solve(path(3))
            except solvers.CertificateError:
                print(solve.__name__, "rejected")
        print("optimize", sys.flags.optimize)
    """)

    def test_bad_cover_rejected_under_optimize(self):
        proc = run_python(self.BAD_COVER, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [
            "domination_number rejected", "total_domination_number rejected", "optimize 1", ""]

    def test_cover_of_wrong_size_rejected(self, monkeypatch):
        from openpack import solvers

        # {1} dominates the path, but the search claims two picks
        monkeypatch.setattr(solvers, "_min_cover", lambda n, cover, reach, floor=0: (2, 0b010))
        with pytest.raises(CertificateError):
            domination_number(path(3))

    def test_labels_not_onto_rejected(self, monkeypatch):
        from openpack import solvers

        class GappedKernel:
            @staticmethod
            def chromatic_number(n, adj, memo=None):
                return 3, [1, 3, 1]

        monkeypatch.setattr(solvers, "_kernel", GappedKernel)
        with pytest.raises(CertificateError):
            chromatic_number(path(3))

    def test_set_beyond_vertices_rejected(self, monkeypatch):
        from openpack import solvers

        class WideKernel:
            @staticmethod
            def max_independent_set(n, adj, memo=None):
                return 1, 1 << n

        monkeypatch.setattr(solvers, "_kernel", WideKernel)
        with pytest.raises(CertificateError):
            max_independent_set(path(3))

    def test_negative_set_rejected(self, monkeypatch):
        from openpack import solvers

        class NegativeKernel:
            @staticmethod
            def max_independent_set(n, adj, memo=None):
                return 1, -1

        monkeypatch.setattr(solvers, "_kernel", NegativeKernel)
        with pytest.raises(CertificateError, match="mask must be non-negative, got -1"):
            max_independent_set(path(3))


class TestFactCache:
    """``solvers.fact``: each ``GraphFacts`` attribute is computed on its first
    get, stored in the instance, and never computed again."""

    def test_each_invariant_solved_once(self, monkeypatch):
        from openpack import _kernels_py, solvers

        calls = []
        for name in ("chromatic_number", "max_independent_set"):
            search = getattr(_kernels_py, name)
            monkeypatch.setattr(_kernels_py, name,
                                lambda n, adj, memo=None, search=search, name=name:
                                calls.append(name) or search(n, adj, memo))
        facts = solvers.GraphFacts(cycle(6))
        first = [getattr(facts, name) for name in solvers.INVARIANTS]
        solved = len(calls)
        assert solved == 6  # chi, p_o, chi2; rho, rho_o, omega_N
        for _ in range(3):
            assert [getattr(facts, name) for name in solvers.INVARIANTS] == first
        assert len(calls) == solved
        assert set(vars(facts)) >= {*solvers.INVARIANTS, "two_step", "square", "_within_cap"}
        # a second instance of the same graph solves again: the cache is per instance
        solvers.GraphFacts(cycle(6)).p_o
        assert len(calls) == solved + 1

    def test_undefined_value_is_not_stored(self):
        from openpack import solvers

        facts = solvers.GraphFacts(Graph(3, (0b010, 0b001, 0)))  # vertex 2 is isolated
        for _ in range(3):
            with pytest.raises(UndefinedInvariantError):
                facts.gamma_t
            assert "gamma_t" not in vars(facts)
        assert facts.gamma[0] == 2

    def test_class_access_returns_the_descriptor(self):
        from openpack import harness, solvers

        for cls, name in ((solvers.GraphFacts, "p_o"), (solvers.GraphFacts, "_within_cap"),
                          (harness.GraphFacts, "g6"), (harness.GraphFacts, "rho")):
            prop = getattr(cls, name)
            assert isinstance(prop, solvers.fact) and prop.name == name
            assert prop.__doc__ == prop.method.__doc__
        assert "solver cap" in solvers.GraphFacts._within_cap.__doc__

    def test_harness_facts_are_cached(self, monkeypatch):
        from openpack import harness

        calls = []
        names = ("g6", "maxdeg", "connected", "diameter_le_2")
        for name in names:
            prop = vars(harness.GraphFacts)[name]
            monkeypatch.setattr(prop, "method", lambda self, method=prop.method, name=name:
                                calls.append(name) or method(self))
        facts = harness.GraphFacts(cycle(5))
        for _ in range(3):
            assert [getattr(facts, name) for name in names] == ["Dhc", 2, True, True]
        assert calls == list(names)
        assert set(vars(facts)) >= set(names)
