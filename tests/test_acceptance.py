"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Two sub-claims of the published statements are mathematically false (the
corona formula, and the clique number of the two-step graph of C6); the
tests encoding those literal statements are strict xfails, each paired with
a green test pinning the machine-verified truth.  docs/findings.md carries
the analysis.
"""

import contextlib
import io
import time
from pathlib import Path

import pytest

import conftest
from openpack import harness
from openpack.cli import main as cli_main
from openpack.constructions import PsiSpec, cart_sharp_instance, psi_graph, tree_opp
from openpack.graph import (
    complete,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    is_connected,
    is_isomorphic,
    iter_bits,
    max_degree,
    random_tree,
)
from openpack.harness import EQUALITY, REPORT_ONLY, VIOLATED
from openpack.products import corona, direct, lexicographic
from openpack.solvers import (
    is_opp,
    omega_of_two_step,
    open_packing_number,
    open_packing_partition_number,
    two_distance_chromatic,
)

FINDINGS = Path(__file__).resolve().parent.parent / "docs" / "findings.md"


def record(criterion: str, ok: bool, detail: str) -> None:
    conftest.ACCEPTANCE_LINES.append(
        f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    )
    assert ok, f"{criterion}: {detail}"


def all_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_all_graphs(k)


def test_criterion_1_exhaustive_inequality_suite():
    start = time.time()
    theorems = ["T1", "T2", "T3", "T9", "T13", "T14"]
    counts = {"violated": 0, "rows": 0}
    for row in harness.run_corpus(theorems, all_upto(6)):
        counts["rows"] += 1
        counts["violated"] += row.verdict == VIOLATED
    elapsed = time.time() - start
    record(
        "C1",
        counts["violated"] == 0 and counts["rows"] > 0,
        f"T1-T3,T9,T13,T14 over all 33867 graphs with n<=6: "
        f"{counts['rows']} rows, {counts['violated']} violated, {elapsed:.0f}s",
    )


def test_criterion_2_lexicographic_exactness():
    start = time.time()
    rows = list(harness.run_corpus(["T6"], harness.lex_grid(4, 3)))
    bad = [r for r in rows if r.verdict not in (EQUALITY,)]
    # the gadget: doubling each vertex multiplies the packing chromatic
    # number into the partition number
    gadget_ok = True
    k2 = complete(2)
    for g in all_upto(4):
        if g.n < 2 or not is_connected(g):
            continue
        prod, _ = lexicographic(g, k2)
        po = open_packing_partition_number(prod)[0]
        if po != 2 * two_distance_chromatic(g)[0]:
            gadget_ok = False
    elapsed = time.time() - start
    record(
        "C2",
        not bad and gadget_ok and len(rows) == 473,
        f"lexicographic formula exact on {len(rows)} (G,H) pairs and "
        f"p_o(G o K2) = 2 chi2(G) on all connected G with n<=4, {elapsed:.0f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the corona formula is false as stated: 80 counterexamples on the "
    "grid, smallest K1.K2 (triangle, p_o 3 vs 2); see docs/findings.md",
)
def test_criterion_3_corona_exactness_as_stated():
    rows = list(harness.run_corpus(["T7"], harness.pair_grid(4, 3)))
    violated = [r for r in rows if r.verdict == VIOLATED]
    record(
        "C3(literal)",
        not violated,
        f"corona formula exact on all {len(rows)} pairs (known false; "
        f"{len(violated)} counterexamples)",
    )


def bump_expected(g, h):
    """The term e of the corrected corona form in docs/findings.md section 2."""
    if h.m == 0 or any(mask == 0 for mask in h.adj):
        return False
    d = max_degree(g)
    po_g = open_packing_partition_number(g)[0]
    if h.n + d < po_g:
        return False
    return any(
        g.degree(v) == d
        and all(g.adj[v] & g.adj[u] for u in iter_bits(g.adj[v]))
        for v in range(g.n)
    )


def test_criterion_3_corona_verified_behavior():
    start = time.time()
    rows = list(harness.run_corpus(["T7"], harness.pair_grid(4, 3)))
    violated = [r for r in rows if r.verdict == VIOLATED]
    # every counterexample is off by exactly one, and matches the
    # structural characterization from docs/findings.md
    ok = len(rows) == 825 and len(violated) == 80
    ok = ok and all(r.lhs == r.rhs + 1 for r in violated)
    pairs = list(harness.pair_grid(4, 3))
    for (g, h), row in zip(pairs, rows):
        expected_violation = bump_expected(g, h)
        ok = ok and (row.verdict == VIOLATED) == expected_violation
        if not ok:
            break
    elapsed = time.time() - start
    record(
        "C3",
        ok,
        f"corona formula on 825 pairs: exact except the 80 characterized "
        f"+1 counterexamples (see docs/findings.md), {elapsed:.0f}s",
    )


def test_corrected_corona_form_fails_on_c5_corona_k2():
    # the corrected form of docs/findings.md section 2 holds on |V(G)| <= 4,
    # but not at |V(G)| = 5: C5 has no triangle, so e = 0
    g, h = cycle(5), complete(2)
    prod, _ = corona(g, h)
    formula = max(open_packing_partition_number(g)[0],
                  h.n + max_degree(g) + bump_expected(g, h))
    assert (open_packing_partition_number(prod)[0], formula) == (5, 4)
    assert "C5 . K2" in FINDINGS.read_text()


def test_criterion_4_product_bounds_and_sharpness():
    start = time.time()
    rows = list(harness.run_corpus(["T4", "T5"], harness.pair_grid(4, 4)))
    violated = [r for r in rows if r.verdict == VIOLATED]

    sharp_ok = True
    for n, expected in ((3, 6), (4, 8)):
        g = cart_sharp_instance(1, n)
        sharp_ok = sharp_ok and open_packing_partition_number(g)[0] == expected
    prod, _ = direct(cycle(4), complete(2))
    sharp_ok = sharp_ok and open_packing_partition_number(prod)[0] == 2
    sharp_ok = sharp_ok and is_isomorphic(prod, disjoint_union(cycle(4), cycle(4)))
    elapsed = time.time() - start
    record(
        "C4",
        not violated and sharp_ok and len(rows) == 21916,
        f"Cartesian/direct bounds on all 5625 pairs ({len(rows)} rows, "
        f"0 violated); p_o(C4xK3)=6, p_o(C4xK4)=8, p_o(C4 direct K2)=2 "
        f"with the doubled structure, {elapsed:.0f}s",
    )


def test_criterion_5_trees():
    start = time.time()
    checked = 0
    for n in range(2, 501):
        for i in range(200):
            t = random_tree(n, 1000 * n + i)
            lab = tree_opp(t)
            assert lab.k == max_degree(t)
            assert is_opp(t, lab)
            checked += 1
    solver_confirmed = 0
    for n in range(2, 13):
        for i in range(200):
            t = random_tree(n, 1000 * n + i)
            assert open_packing_partition_number(t)[0] == max_degree(t)
            solver_confirmed += 1
    elapsed = time.time() - start
    record(
        "C5",
        checked == 99800 and solver_confirmed == 2200,
        f"{checked} random trees (200 per n in [2,500]): valid partitions "
        f"with exactly max-degree classes; solver equality on all "
        f"{solver_confirmed} trees with n<=12, {elapsed:.0f}s",
    )


def test_criterion_6_degree_density_equality():
    start = time.time()
    # equality arithmetic and the forced structure, directly on the family
    # (the corpus check's connectivity hypothesis would skip the r=2, s=4
    # member, which is two disjoint 4-cycles)
    family_ok = True
    for r, s in ((2, 2), (2, 4), (3, 2), (4, 2)):
        g = psi_graph(PsiSpec(r, s))
        po, lab = open_packing_partition_number(g)
        rho_o = open_packing_number(g)[0]
        family_ok = family_ok and po * (po - 1) * rho_o == 2 * g.m - g.n
        family_ok = family_ok and harness.has_matching_partition_structure(g, lab, rho_o)
        family_ok = family_ok and (po, rho_o) == (r, s)

    corpus = (g for g in all_upto(6) if is_connected(g))
    violated = equalities = total = 0
    for row in harness.run_corpus(["T8"], corpus):
        total += 1
        violated += row.verdict == VIOLATED
        equalities += row.verdict == EQUALITY
    elapsed = time.time() - start
    record(
        "C6",
        family_ok and violated == 0 and equalities > 0,
        f"matching-family instances reach the degree-density bound with the "
        f"forced structure; all {total} connected graphs n<=6 checked "
        f"integer-exactly, {equalities} equality cases all pass the "
        f"structure test, 0 violated, {elapsed:.0f}s",
    )


def test_criterion_7_two_step_structure_suite():
    start = time.time()
    rows12 = list(harness.run_corpus(["T12"], all_upto(6)))
    violated12 = [r for r in rows12 if r.verdict == VIOLATED]
    checked12 = [r for r in rows12 if r.verdict == EQUALITY]

    rows15 = list(harness.run_corpus(["T15"], [1, 2, 3]))
    t15_ok = all(r.verdict == EQUALITY for r in rows15)
    # chi of the two-step graph is 3 on every instance; the clique number is
    # 2 for t in {2,3} (and 3 at t=1, where the components are triangles)
    chi_rows = rows15[1::3]
    omega_rows = rows15[2::3]
    t15_ok = t15_ok and all(r.lhs == 3 for r in chi_rows)
    t15_ok = t15_ok and [r.lhs for r in omega_rows] == [3, 2, 2]

    # the committed finding must reproduce the certified report rows
    report_rows = list(harness.run_corpus(["T11"], [cycle(5), cycle(7)]))
    finding_text = FINDINGS.read_text()
    finding_ok = all(
        row.verdict == REPORT_ONLY
        and (row.lhs, row.rhs) == (3, 2)
        and row.to_json() in finding_text
        for row in report_rows
    )
    elapsed = time.time() - start
    record(
        "C7",
        not violated12 and checked12 and t15_ok and finding_ok,
        f"bipartite-complement equality on {len(checked12)} qualifying "
        f"graphs n<=6 (0 violated); two-step of C_(4t+2) is 2 C_(2t+1) for "
        f"t=1,2,3 with chi=3 and omega as forced by the components; "
        f"report rows for C5/C7 match docs/findings.md, {elapsed:.0f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="omega of the two-step graph of C6 is 3 (two triangles), not 2; "
    "the stated t=1 value is unattainable, see docs/findings.md",
)
def test_criterion_7_literal_omega_at_t1():
    omega = omega_of_two_step(cycle(6))[0]
    record("C7(literal)", omega == 2, f"omega of two-step of C6 = {omega}, stated 2")


def test_criterion_8_determinism():
    start = time.time()

    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(args)
        return code, out.getvalue()

    invocations = [
        ["verify", "--theorem", "T1,T2,T3", "--all-n", "5"],
        ["verify", "--theorem", "T10", "--random-trees", "2", "30", "3", "11"],
        ["verify", "--theorem", "T15", "--t-values", "1,2,3"],
    ]
    ok = True
    for args in invocations:
        first = run(args)
        second = run(args)
        ok = ok and first == second and first[1]
    pooled = run(["verify", "--theorem", "T1,T2,T3", "--all-n", "5", "--jobs", "2"])
    serial = run(["verify", "--theorem", "T1,T2,T3", "--all-n", "5"])
    ok = ok and pooled == serial
    elapsed = time.time() - start
    record(
        "C8",
        ok,
        f"byte-identical JSONL across reruns (3 invocation shapes, plus "
        f"worker-pool vs serial), {elapsed:.0f}s",
    )
