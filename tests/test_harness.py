import inspect
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs
from openpack import _kernels_py, harness, solvers
from openpack.constructions import ng_extremal, psi_graph
from openpack.formats import to_graph6
from openpack.graph import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_connected,
    path,
    random_tree,
    star,
)
from openpack.harness import (
    EQUALITY,
    HOLDS,
    REPORT_ONLY,
    SKIPPED,
    VIOLATED,
    GraphFacts,
    TheoremCheckResult,
    all_graphs_upto,
    check_T1,
    check_T2,
    check_T3,
    check_T4,
    check_T5,
    check_T6,
    check_T7,
    check_T8,
    check_T9,
    check_T10,
    check_T11,
    check_T12,
    check_T13,
    check_T14,
    check_T15,
    has_matching_partition_structure,
    reverify_violation,
    run_corpus,
    summarize,
)

K2 = from_edge_list(2, [(0, 1)])


def facts(g):
    return GraphFacts(g)


class TestBoundChecks:
    def test_t1_upper_tight_on_complete(self):
        rows = check_T1(facts(complete(5)))
        lower, upper = rows
        assert lower.verdict == EQUALITY  # n = p_o * rho_o = 5
        assert upper.verdict == EQUALITY  # p_o = n - rho_o + 1

    def test_t2_lower_tight_on_balanced_bipartite(self):
        rows = check_T2(facts(complete_bipartite(3, 3)))
        assert rows[0].verdict == EQUALITY  # chi2 = 2 p_o
        assert rows[0].lhs == 6 and rows[0].rhs == 6

    def test_t3_trees_tight(self):
        row, = check_T3(facts(star(6)))
        assert row.verdict == EQUALITY

    def test_t3_strict_on_cycle(self):
        row, = check_T3(facts(cycle(5)))
        assert row.verdict == HOLDS and row.lhs == 2 and row.rhs == 3

    @pytest.mark.parametrize("g", [star(6), cycle(5), complete(1), path(4)],
                             ids=["star6", "c5", "k1", "p4"])
    def test_t3_witness_is_the_hub_clique(self, monkeypatch, g):
        # T3 is never violated, so its witness is built here by judging every
        # row violated: p_o's labelling and the lowest hub's neighbourhood,
        # both of which the reverifier checks like any other certificate
        monkeypatch.setattr(harness, "_verdict", lambda relation, lhs, rhs: VIOLATED)
        row, = check_T3(facts(g))
        hub = [g.degree(v) for v in range(g.n)].index(facts(g).maxdeg)
        opp, clique = row.witness["certificates"]
        assert (opp["kind"], clique["kind"]) == ("opp_labeling", "common_neighbor_clique")
        assert clique["vertices"] == [v for v in range(g.n) if g.adj[hub] >> v & 1]
        reverify_violation(row)

    def test_t3_builds_no_clique_for_a_holding_row(self, monkeypatch):
        # the hub clique is only a violated row's witness, so a row that holds
        # or is an equality never reads the fact
        def refuse(facts):
            raise AssertionError("hub clique built for a row that is not violated")
        monkeypatch.setattr(GraphFacts, "hub_clique", property(refuse))
        for n in range(1, 5):
            for g in enumerate_all_graphs(n):
                row, = check_T3(facts(g))
                assert row.verdict in (HOLDS, EQUALITY)


class TestDegreeDensity:
    def test_c4_equality_with_structure(self):
        rows = check_T8(facts(cycle(4)))
        assert len(rows) == 1 and rows[0].verdict == EQUALITY

    def test_prism_equality(self):
        rows = check_T8(facts(psi_graph(3, 2)))
        assert rows[0].verdict == EQUALITY

    def test_k4_strict(self):
        rows = check_T8(facts(complete(4)))
        assert rows[0].verdict == HOLDS
        assert rows[0].lhs == 2 * 6 - 4 and rows[0].rhs == 4 * 3 * 1

    def test_disconnected_skipped(self):
        rows = check_T8(facts(from_edge_list(4, [(0, 1)])))
        assert rows[0].verdict == SKIPPED

    def test_structure_predicate(self):
        g = psi_graph(2, 4)
        fg = facts(g)
        assert has_matching_partition_structure(g, fg.p_o[1], fg.rho_o[0])
        assert not has_matching_partition_structure(
            complete(4), facts(complete(4)).p_o[1], 1
        )

    # on the cycle 0-1-2-3, classes {0, 1} and {2, 3} give every vertex one
    # neighbour in each; the others break one condition each
    @pytest.mark.parametrize("labels, expected", [
        ((1, 1, 2, 2), True), ((1, 1, 1, 2), False), ((1, 2, 1, 2), False), ((2, 1, 2, 1), False),
    ], ids=["structure", "class-of-three", "no-neighbour-in-a-class", "two-neighbours-in-a-class"])
    def test_structure_predicate_on_c4(self, labels, expected):
        labeling = solvers.VertexLabeling(labels, 2)
        assert has_matching_partition_structure(cycle(4), labeling, 2) is expected

    def test_equality_without_structure_is_flagged(self, monkeypatch):
        # equality is supposed to force the structure, so an equality without
        # it gets a second, violated row: the required flag 1 against 0
        monkeypatch.setattr(harness, "has_matching_partition_structure", lambda *args: False)
        bound, flag = check_T8(facts(psi_graph(3, 2)))
        assert bound.verdict == EQUALITY
        assert (flag.verdict, flag.lhs, flag.rhs) == (VIOLATED, 1, 0)
        assert flag.witness["certificates"][-1] == {
            "kind": "value", "name": "matching_partition_structure", "value": 0}
        reverify_violation(flag)


class TestComplementSum:
    def test_excluded_cycle(self):
        row, = check_T9(facts(cycle(4)))
        assert row.verdict == REPORT_ONLY
        assert row.lhs == 3 and row.rhs == 3

    def test_excluded_matching(self):
        row, = check_T9(facts(disjoint_union(K2, K2)))
        assert row.verdict == REPORT_ONLY
        assert row.lhs == 3 and row.rhs == 3

    def test_relabeled_copy_excluded(self):
        relabeled = from_edge_list(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        row, = check_T9(facts(relabeled))
        assert row.verdict == REPORT_ONLY

    def test_excluded_exactly_c4_and_2k2(self):
        # the degree rule against the isomorphism test on every labeled 4-vertex graph
        two_k2 = disjoint_union(K2, K2)
        excluded = [g for g in enumerate_all_graphs(4)
                    if oracles.isomorphic(g, cycle(4)) or oracles.isomorphic(g, two_k2)]
        reported = [g for g in enumerate_all_graphs(4)
                    if check_T9(facts(g))[0].verdict == REPORT_ONLY]
        assert reported == excluded and len(excluded) == 6

    def test_extremal_family_tight(self):
        row, = check_T9(facts(ng_extremal(3)))
        assert row.verdict == EQUALITY and row.lhs == 6 and row.rhs == 6

    def test_complete_strict(self):
        row, = check_T9(facts(complete(5)))
        assert row.verdict == HOLDS and row.rhs == 6


class TestTrees:
    def test_small_tree_solver_confirmed(self):
        row, = check_T10(facts(random_tree(9, 3)))
        assert row.verdict == EQUALITY

    def test_non_tree_skipped(self):
        row, = check_T10(facts(cycle(5)))
        assert row.verdict == SKIPPED

    def test_large_tree_construction_only(self):
        # the construction alone settles a 60-vertex tree: its classes match
        # the hub's clique, so the row is an equality with no solver behind it
        fg = facts(random_tree(60, 3))
        row, = check_T10(fg)
        assert (row.verdict, row.lhs, row.rhs) == (EQUALITY, fg.maxdeg, fg.maxdeg)

    def test_solver_confirms_up_to_twelve_vertices(self):
        # there is no size boundary any more: 12 vertices and 13 are both
        # proved equalities by the construction and the hub's clique
        for n in (12, 13):
            fg = facts(random_tree(n, 3))
            row, = check_T10(fg)
            assert (row.verdict, row.lhs, row.rhs) == (EQUALITY, fg.maxdeg, fg.maxdeg)

    @pytest.mark.parametrize("n", [12, 500])
    def test_no_kernel_runs(self, monkeypatch, n):
        def no_search(*args):
            raise AssertionError("T10 ran a kernel search")

        monkeypatch.setattr(_kernels_py, "chromatic_number", no_search)
        monkeypatch.setattr(_kernels_py, "max_independent_set", no_search)
        fg = facts(random_tree(n, 3))
        row, = check_T10(fg)
        assert (row.verdict, row.lhs, row.rhs) == (EQUALITY, fg.maxdeg, fg.maxdeg)

    @pytest.mark.parametrize("labels, k", [((1, 2, 1, 2), 2), ((1, 2, 3, 3), 3)],
                             ids=["not-an-opp", "max-degree-plus-one-classes"])
    def test_broken_construction_fails_its_certificate(self, monkeypatch, labels, k):
        # a constructor fault, not a violated row: the labeling is checked on
        # the certificate path the solvers use
        g = path(4)
        bad = solvers.VertexLabeling(labels, k)
        assert solvers.is_opp(g, bad) == (k == 3)
        monkeypatch.setattr(harness, "tree_opp", lambda t: bad)
        with pytest.raises(solvers.CertificateError):
            check_T10(facts(g))

    @pytest.mark.parametrize("mask", [0b0001, 0b1001], ids=["one-vertex-short", "not-a-clique"])
    def test_broken_clique_fails_its_certificate(self, monkeypatch, mask):
        # on the path 0-1-2-3 the hub 1's clique is {0, 2}; a wrong one handed
        # to the certifier is a fault of the lower-bound certificate, not a
        # violated row
        g = path(4)
        assert facts(g).hub_clique == (2, solvers.VertexSet(0b0101))
        certified = solvers._certified

        def wrong_clique(g, predicate, size, found):
            if predicate is solvers.PREDICATES["omega_N"]:
                found = mask
            return certified(g, predicate, size, found)

        monkeypatch.setattr(solvers, "_certified", wrong_clique)
        with pytest.raises(solvers.CertificateError):
            check_T10(facts(g))


class TestEvenCycleFree:
    def test_c5_report_only(self):
        row, = check_T11(facts(cycle(5)))
        assert row.verdict == REPORT_ONLY
        assert (row.lhs, row.rhs) == (3, 2)

    def test_c7_report_only(self):
        row, = check_T11(facts(cycle(7)))
        assert (row.lhs, row.rhs) == (3, 2)

    def test_tree_asserted(self):
        row, = check_T11(facts(path(5)))
        assert row.verdict == EQUALITY

    def test_even_cycle_skipped(self):
        row, = check_T11(facts(cycle(4)))
        assert row.verdict == SKIPPED


class TestBipartiteComplement:
    def test_complete_qualifies(self):
        row, = check_T12(facts(complete(4)))
        assert row.verdict == EQUALITY

    def test_c5_skipped(self):
        row, = check_T12(facts(cycle(5)))
        assert row.verdict == SKIPPED

    def test_two_cliques(self):
        g = disjoint_union(complete(3), complete(4))
        row, = check_T12(facts(g))
        assert row.verdict == EQUALITY


class TestConditionChecks:
    def test_t13_complete(self):
        rows = check_T13(facts(complete(4)))
        assert all(r.verdict == HOLDS for r in rows)
        assert rows[0].lhs == 1 and rows[0].rhs == 1

    def test_t13_cycle(self):
        rows = check_T13(facts(cycle(6)))
        assert all(r.verdict == HOLDS for r in rows)
        assert rows[0].lhs == 0

    def test_diameter_le_2_read_off_the_square(self):
        # every graph with n <= 6 (K1 included), against networkx's distances
        networkx = pytest.importorskip("networkx")
        for g in all_graphs_upto(6):
            nxg = networkx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            within_2 = is_connected(g) and networkx.diameter(nxg) <= 2
            assert facts(g).diameter_le_2 == within_2, g.adj

    def test_t13_small_skipped(self):
        rows = check_T13(facts(K2))
        assert rows[0].verdict == SKIPPED

    def test_t14_rows(self):
        rows = check_T14(facts(cycle(6)))
        assert len(rows) == 2
        assert all(r.verdict in (HOLDS, EQUALITY) for r in rows)

    def test_t14_isolated_vertex_skips_total(self):
        rows = check_T14(facts(from_edge_list(3, [(0, 1)])))
        assert rows[0].verdict in (HOLDS, EQUALITY)
        assert rows[1].verdict == SKIPPED


class TestPairChecks:
    def test_t4_sharp_instance(self):
        rows = check_T4(facts(cycle(4)), facts(complete(3)))
        lower, upper = rows
        assert upper.verdict == EQUALITY  # p_o = 6 = min(2*3, 4*3)
        assert upper.lhs == 6 and upper.rhs == 6

    def test_t5_direct_lower_tight(self):
        rows = check_T5(facts(cycle(4)), facts(K2))
        lower, upper = rows
        assert lower.verdict == EQUALITY  # p_o(2C4) = 2 = max(2, 1)
        assert lower.lhs == 2 and lower.rhs == 2

    def test_t5_empty_factor_skipped(self):
        rows = check_T5(facts(cycle(4)), facts(from_edge_list(2, [])))
        assert rows[0].verdict == SKIPPED

    def test_t6_p3_k2(self):
        row, = check_T6(facts(path(3)), facts(K2))
        assert row.verdict == EQUALITY
        assert row.lhs == 6 and row.rhs == 6

    def test_t6_identity_factor(self):
        g = cycle(5)
        row, = check_T6(facts(g), facts(Graph(1, (0,))))
        assert row.verdict == EQUALITY
        assert row.lhs == 3  # collapses to p_o(g)

    def test_t6_k2_gadget_doubles_chi2(self):
        g = path(4)
        fg = facts(g)
        row, = check_T6(fg, facts(K2))
        assert row.verdict == EQUALITY
        assert row.lhs == 2 * fg.chi2[0]

    def test_t6_disconnected_skipped(self):
        row, = check_T6(facts(from_edge_list(3, [(0, 1)])), facts(K2))
        assert row.verdict == SKIPPED

    def test_t7_pendant_copies(self):
        row, = check_T7(facts(path(3)), facts(Graph(1, (0,))))
        assert row.verdict == EQUALITY and row.lhs == 3

    def test_t7_formula_fails_on_join_of_clique(self):
        # K1 . K3 is K4: p_o = 4, the claimed formula value is 3; the check
        # reports the counterexample with verifying certificates
        row, = check_T7(facts(Graph(1, (0,))), facts(complete(3)))
        assert row.verdict == VIOLATED
        assert row.lhs == 4 and row.rhs == 3
        reverify_violation(row)

    def test_t7_triangle_counterexample(self):
        # the smallest one: K1 . K2 is the triangle
        row, = check_T7(facts(Graph(1, (0,))), facts(K2))
        assert row.verdict == VIOLATED
        assert row.lhs == 3 and row.rhs == 2


class TestTwoStepCycles:
    # every t within the solver cap: C(62) at t = 15
    @pytest.mark.parametrize("t,omega", [(t, 3 if t == 1 else 2) for t in range(1, 16)])
    def test_rows(self, search_deadline, t, omega):
        rows = check_T15(t)
        assert [r.verdict for r in rows] == [EQUALITY] * 3
        assert rows[1].lhs == 3 and rows[2].lhs == omega

    @pytest.mark.parametrize("t", [1, 2, 15])
    def test_map_onto_another_graph_is_violated(self, monkeypatch, t):
        # the flag compares the relabelled rows with the target, so a target
        # that is not their image (one cycle C(4t+2)) must read 0
        monkeypatch.setattr(harness, "disjoint_union", lambda g, h: cycle(g.n + h.n))
        flag = check_T15(t)[0]
        assert flag.verdict == VIOLATED and (flag.lhs, flag.rhs) == (0, 1)
        reverify_violation(flag)


class TestWitnesses:
    def _violated_row(self):
        # K1 . K2 is the triangle: the corona formula's smallest counterexample
        row, = check_T7(facts(Graph(1, (0,))), facts(K2))
        assert row.verdict == VIOLATED
        return row

    def test_reverify_accepts_consistent_row(self):
        reverify_violation(self._violated_row())

    def test_reverify_rejects_satisfied_relation(self):
        row = self._violated_row()
        row.rhs = row.lhs
        with pytest.raises(ValueError):
            reverify_violation(row)

    def test_reverify_rejects_bad_certificate(self):
        row = self._violated_row()
        for cert in row.witness["certificates"]:
            if cert["kind"] == "opp_labeling":
                cert["labels"] = [1] * len(cert["labels"])
                cert["k"] = 1
        with pytest.raises(ValueError):
            reverify_violation(row)

    # one certificate of each kind on the path 0-1-2: a valid one, then a corrupted one
    P3_CERTS = [
        ("opp_labeling", {"labels": [1, 1, 2], "k": 2}, {"labels": [1, 1, 1], "k": 1}),
        ("packing_labeling", {"labels": [1, 2, 3], "k": 3}, {"labels": [1, 2, 1], "k": 2}),
        ("open_packing_set", {"vertices": [0, 1]}, {"vertices": [0, 2]}),
        ("packing_set", {"vertices": [0]}, {"vertices": [0, 1]}),
        ("dominating_set", {"vertices": [1]}, {"vertices": [0]}),
        ("total_dominating_set", {"vertices": [0, 1]}, {"vertices": [1]}),
        ("common_neighbor_clique", {"vertices": [0, 2]}, {"vertices": [0, 1]}),
    ]

    @staticmethod
    def _row_with(kind, fields):
        cert = {"kind": kind, "graph6": to_graph6(path(3)), **fields}
        return TheoremCheckResult("T3", "Bg", VIOLATED, 5, 4, {"certificates": [cert]})

    @pytest.mark.parametrize("kind,good,bad", P3_CERTS, ids=[c[0] for c in P3_CERTS])
    def test_reverify_checks_each_kind(self, kind, good, bad):
        reverify_violation(self._row_with(kind, good))
        with pytest.raises(ValueError, match="failed verification"):
            reverify_violation(self._row_with(kind, bad))

    @pytest.mark.parametrize("kind,fields", [
        ("packing_set", {"vertices": [0, 7, 9]}),
        ("packing_labeling", {"labels": [1, 2, 3, 1], "k": 3}),
        ("opp_labeling", {"labels": [1, 1], "k": 1}),
        # fields of the wrong kind, missing or of the wrong type
        ("opp_labeling", {"vertices": [0, 1]}),
        ("packing_set", {"labels": [1, 2, 3], "k": 3}),
        ("dominating_set", {}),
        ("open_packing_set", {"vertices": [0, "x"]}),
        ("packing_set", {"vertices": [True]}),
    ], ids=["set-beyond-n", "labeling-too-long", "labeling-too-short", "labeling-as-set",
            "set-as-labeling", "set-missing", "set-non-int", "set-bool-vertex"])
    def test_reverify_rejects_certificates_outside_the_graph(self, kind, fields):
        with pytest.raises(ValueError, match="does not fit its 3-vertex graph"):
            reverify_violation(self._row_with(kind, fields))

    def test_reverify_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown certificate kind"):
            reverify_violation(self._row_with("mystery_set", {"vertices": [0]}))

    G6 = to_graph6(path(3))
    # witnesses that are not a non-empty list of well-formed certificates
    MALFORMED = [
        ({"certificates": [{"graph6": G6, "vertices": [0]}]}, "unknown certificate kind"),
        ({"certificates": [{"kind": ["packing_set"], "graph6": G6}]}, "unknown certificate kind"),
        ({"certificates": [{"kind": "packing_set", "vertices": [0]}]}, "graph6 record"),
        ({"certificates": [{"kind": "packing_set", "graph6": 5, "vertices": [0]}]},
         "graph6 record"),
        ({"certificates": "abc"}, "list of certificates"),
        ({"certificates": [5]}, "unknown certificate kind"),
        ("abc", "list of certificates"),
        ({"certificates": [{"kind": "value"}]}, "does not fit"),
        ({"certificates": [{"kind": "value", "name": "x", "value": True}]}, "does not fit"),
        ({"certificates": []}, "list of certificates"),
        ({}, "list of certificates"),
        # k far past the vertex count is refused before a range of k is built
        ({"certificates": [{"kind": "opp_labeling", "graph6": G6, "labels": [1, 1, 2],
                            "k": 10 ** 12}]}, "does not fit"),
        # a vertex far past the graph is refused before a mask of it is built
        ({"certificates": [{"kind": "packing_set", "graph6": G6, "vertices": [10 ** 12]}]},
         "does not fit"),
    ]

    @pytest.mark.parametrize("witness,match", MALFORMED, ids=[
        "no-kind", "unhashable-kind", "no-graph6", "int-graph6", "string-certificates",
        "int-certificate", "string-witness", "value-without-fields", "value-bool",
        "no-certificates", "empty-witness", "huge-k", "huge-vertex"])
    def test_reverify_rejects_malformed_witnesses(self, witness, match):
        row = TheoremCheckResult("T3", self.G6, VIOLATED, 5, 4, witness)
        with pytest.raises(ValueError, match=match):
            reverify_violation(row)

    def test_reverify_rejects_unknown_theorem(self):
        row = self._row_with("packing_set", {"vertices": [0]})
        row.theorem = "T99"
        with pytest.raises(ValueError, match="unknown theorem id"):
            reverify_violation(row)

    def test_reverify_requires_witness(self):
        row = TheoremCheckResult("T3", "A_", VIOLATED, 5, 4, None)
        with pytest.raises(ValueError):
            reverify_violation(row)

    def test_reverify_only_for_violations(self):
        row = TheoremCheckResult("T3", "A_", HOLDS, 1, 2, None)
        with pytest.raises(ValueError):
            reverify_violation(row)


class TestCertKinds:
    """Each certificate kind is stated once, in ``harness.CERT_KINDS``, and
    what names the kinds agrees with it."""

    def test_invariant_kinds_cover_the_solver_invariants(self):
        invariants = {invariant for invariant, _, _ in harness.CERT_KINDS.values()}
        assert invariants - {None} == set(solvers.INVARIANTS) - {"chi"}

    @settings(max_examples=40, deadline=None)
    @given(graphs(1, 8))
    def test_written_certificates_read_back(self, g):
        # every invariant kind's checked certificate, as a witness writes it,
        # has exactly its kind's fields and passes the reverifier
        fg = facts(g)
        parts = []
        for kind, (invariant, fields, _) in harness.CERT_KINDS.items():
            if invariant not in solvers.INVARIANTS:
                continue
            try:
                getattr(fg, invariant)
            except solvers.UndefinedInvariantError:  # gamma_t with an isolated vertex
                continue
            cert, = harness._witness(((fg, invariant),))["certificates"]
            assert cert["kind"] == kind and set(cert) == {"kind", *fields}
            parts.append((fg, invariant))
        reverify_violation(TheoremCheckResult(
            "T3", fg.g6, VIOLATED, 5, 4, harness._witness(tuple(parts))))

    def test_readme_table_lists_each_kind(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Certificate kinds", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `?([\w-]+)`? \| (.+?) \| (.+?) \|$", section,
                          flags=re.MULTILINE)
        table = {}
        for kind, invariant, fields, predicate in rows:
            table[kind] = (None if invariant == "-" else invariant,
                           tuple(re.findall(r"`(\w+)`", fields)), predicate)
        assert len(rows) == len(table)
        assert {kind: row[:2] for kind, row in table.items()} == {
            kind: (invariant, fields)
            for kind, (invariant, fields, _) in harness.CERT_KINDS.items()}
        assert all(predicate == f"`{solvers.PREDICATES[invariant].__name__}`"
                   for invariant, _, predicate in table.values()
                   if invariant in solvers.PREDICATES)


class TestRunner:
    def test_unknown_theorem(self):
        with pytest.raises(Exception):
            list(run_corpus(["T99"], [cycle(4)]))

    def test_rows_in_corpus_order(self):
        instances = [complete(3), cycle(4), star(4)]
        rows = list(run_corpus(["T3"], instances))
        assert [r.instance for r in rows] == [to_graph6(g) for g in instances]

    def test_t_value_past_solver_cap_is_named(self, monkeypatch):
        # a T15 value is named by itself, not by its place: C(10) is past a cap of 8
        monkeypatch.setenv("OPENPACK_MAX_N", "8")
        rows = run_corpus(["T15"], [1, 2])
        assert [row.theorem for row in (next(rows), next(rows), next(rows))] == ["T15"] * 3
        with pytest.raises(solvers.SolverCapError,
                           match=r"^t=2: instance has 10 vertices, exact solvers cap at 8$"):
            next(rows)

    def test_pair_past_product_cap_is_named(self):
        # P2 cart P2 has 4 vertices; P5 cart P5 has 25, one past the harness
        # cap, and its refusal names the pair and keeps its class
        rows = run_corpus(["T4"], [(path(2), path(2)), (path(5), path(5))])
        assert [row.theorem for row in (next(rows), next(rows))] == ["T4"] * 2
        with pytest.raises(GraphError) as refused:
            next(rows)
        assert type(refused.value) is GraphError
        assert str(refused.value) == (
            "pair 2: T4 products of 25 vertices, but harness products cap at 24")

    def test_corpus_base_exception_reaches_caller(self):
        # the rows before a SystemExit from the corpus arrive, and the exit
        # reaches the caller
        def corpus():
            yield path(3)
            yield cycle(4)
            raise SystemExit(7)

        rows = []
        with pytest.raises(SystemExit) as exited:
            for row in run_corpus(["T1"], corpus()):
                rows.append(row.to_json())
        assert exited.value.code == 7
        assert rows == [r.to_json() for r in run_corpus(["T1"], [path(3), cycle(4)])]

    def test_json_shape(self):
        row = next(iter(run_corpus(["T3"], [cycle(4)])))
        obj = json.loads(row.to_json())
        assert set(obj) == {"theorem", "instance", "verdict", "lhs", "rhs"}

    def test_summary_counts(self):
        rows = list(run_corpus(["T1"], harness.all_graphs_upto(3)))
        counts = summarize(rows)
        assert sum(counts["T1"].values()) == len(rows)

    def test_render_summary_aligned(self):
        rows = list(run_corpus(["T1", "T3"], [cycle(4)]))
        table = harness.render_summary(summarize(rows))
        lines = table.splitlines()
        assert lines[0].startswith("theorem")
        assert len(lines) == 3

    @pytest.mark.parametrize("build, args, named", [
        (harness.all_graphs_upto, (0,), "n=0"),
        (harness.all_graphs_upto, (8,), "n=8"),
        (harness.pair_grid, (0, 3), "max_g=0"),
        (harness.pair_grid, (3, 8), "max_h=8"),
        (harness.lex_grid, (1, 3), "2 <= max_g"),
        (harness.lex_grid, (3, -1), "max_h=-1"),
        (check_T15, (0,), "T15 needs t >= 1, got t=0"),
    ])
    def test_corpus_builders_refuse_at_the_call(self, build, args, named):
        # before the first instance is asked for, so no row is written first;
        # T15's check refuses a t below its range the same way
        with pytest.raises(GraphError, match=named):
            build(*args)

    @pytest.mark.parametrize("theorems, named", [
        (["T1", "T99"], "'T99'"), (["T1", "T4"], "one kind"), ([], "one kind"),
        (["T1", "T3", "T1"], "'T1' given twice"),
    ])
    def test_theorem_kind_refuses(self, theorems, named):
        with pytest.raises(GraphError, match=named):
            harness.theorem_kind(theorems)

    def test_theorem_kind(self):
        assert [harness.theorem_kind(t) for t in (["T1", "T3"], ["T4", "T7"], ["T15"])] == [
            "single", "pair", "param"]

    def test_lex_grid_respects_hypothesis(self):
        pairs = list(harness.lex_grid(3, 2))
        assert all(p[0].n >= 2 for p in pairs)

    def test_corpus_filters(self):
        trees = [g for g in harness.all_graphs_upto(4) if harness.CORPUS_FILTERS["tree"](g)]
        assert all(g.m == g.n - 1 for g in trees)


class TestRegistry:
    """Each theorem is registered once, beside its check, and everything that
    names the theorems agrees with the registry."""

    def test_every_check_registered(self):
        defined = {name for name in vars(harness) if name.startswith("check_T")}
        assert defined == {f"check_{tid}" for tid in harness.CHECKS}
        assert all(check is getattr(harness, f"check_{tid}")
                   for tid, check in harness.CHECKS.items())

    @pytest.mark.parametrize("tid", sorted(harness.CHECKS, key=lambda t: int(t[1:])))
    def test_every_check_takes_only_its_instance(self, tid):
        # a check is a function of its instance: no run flag rides along
        check = harness.CHECKS[tid]
        arity = {"single": 1, "param": 1, "pair": 2}[check.kind]
        assert len(inspect.signature(check).parameters) == arity

    def test_ids_are_t1_to_t15(self):
        assert sorted(harness.CHECKS, key=lambda t: int(t[1:])) == [
            f"T{i}" for i in range(1, 16)]

    def test_readme_table_lists_the_registered_ids(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## The claim registry", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| (T\d+) +\|", section, flags=re.MULTILINE)
        assert sorted(listed) == sorted(harness.CHECKS) and len(listed) == len(set(listed))

    @pytest.mark.parametrize("relation, lhs, rhs, verdict", [
        ("le", 1, 2, HOLDS), ("le", 2, 2, EQUALITY), ("le", 3, 2, VIOLATED),
        ("eq", 1, 2, VIOLATED), ("eq", 2, 2, EQUALITY), ("eq", 3, 2, VIOLATED),
        ("iff", 0, 1, VIOLATED), ("iff", 1, 1, HOLDS), ("iff", 1, 0, VIOLATED),
    ])
    def test_verdict(self, relation, lhs, rhs, verdict):
        assert harness._verdict(relation, lhs, rhs) == verdict


class TestFactorFacts:
    @staticmethod
    def count_builds(monkeypatch) -> list[Graph]:
        built = []
        init = GraphFacts.__init__

        def counting(self, g, run=None):
            built.append(g)
            init(self, g, run)

        monkeypatch.setattr(GraphFacts, "__init__", counting)
        return built

    @staticmethod
    def factor_builds(built, pairs) -> list[Graph]:
        # products are fresh graphs, so identity tells a factor build apart
        ids = {id(g) for pair in pairs for g in pair}
        return [g for g in built if id(g) in ids]

    def test_each_factor_built_once(self, monkeypatch):
        pairs = list(harness.pair_grid(3, 3))
        built = self.count_builds(monkeypatch)
        list(run_corpus(["T4", "T5"], pairs))
        factors = self.factor_builds(built, pairs)
        assert len(factors) == len(set(factors)) == 11

    def test_bound_holds_and_rows_unchanged(self, monkeypatch):
        pairs = list(harness.pair_grid(3, 3))
        expected = [r.to_json() for r in run_corpus(["T4", "T7"], pairs)]
        infos = []
        evaluate = harness.evaluate_instance

        def recording(theorems, instance, run, factors):
            rows = evaluate(theorems, instance, run, factors)
            infos.append(factors.cache_info())
            return rows

        monkeypatch.setattr(harness, "FACTOR_FACTS_MAX", 4)
        monkeypatch.setattr(harness, "evaluate_instance", recording)
        rows = [r.to_json() for r in run_corpus(["T4", "T7"], pairs)]
        assert rows == expected
        assert any(json.loads(r)["verdict"] == VIOLATED for r in rows)
        assert {info.maxsize for info in infos} == {4}
        assert max(info.currsize for info in infos) == 4

    def test_six_vertex_inner_list_stays(self):
        # the lookup order of a pair_grid(2, 6) run, each pair asking for G
        # then H: every graph misses once, none again
        memo = lru_cache(maxsize=harness.FACTOR_FACTS_MAX)(lambda g: None)
        distinct = set()
        for g, h in harness.pair_grid(2, 6):
            memo(g)
            memo(h)
            distinct.update((g, h))
        assert memo.cache_info().misses == len(distinct) == 33867

    def test_each_run_starts_empty(self, monkeypatch):
        pairs = list(harness.pair_grid(2, 2))
        built = self.count_builds(monkeypatch)
        for _ in range(2):
            built.clear()
            list(run_corpus(["T5"], pairs))
            factors = self.factor_builds(built, pairs)
            assert len(factors) == len(set(factors)) == 3
