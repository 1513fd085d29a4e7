import contextlib
import io
import json

import pytest

from openpack.cli import main
from openpack.formats import parse_graph6, to_graph6
from openpack.graph import (
    complete,
    cycle,
    disjoint_union,
    is_isomorphic,
    is_tree,
    path,
)
from openpack.solvers import VertexLabeling, is_opp


def run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


class TestGen:
    def test_cycle(self):
        code, out = run_cli("gen", "cycle", "--n", "5")
        assert code == 0
        assert parse_graph6(out.strip()) == cycle(5)

    def test_psi(self):
        code, out = run_cli("gen", "psi", "--r", "2", "--s", "2")
        assert is_isomorphic(parse_graph6(out.strip()), cycle(4))

    def test_ng(self):
        code, out = run_cli("gen", "ng", "--k", "3")
        assert parse_graph6(out.strip()).n == 6

    def test_cart_sharp(self):
        code, out = run_cli("gen", "cart-sharp", "--m", "1", "--n", "3")
        assert parse_graph6(out.strip()).n == 12

    def test_tree_random_count(self):
        code, out = run_cli("gen", "tree-random", "--n", "8", "--seed", "3",
                            "--count", "4")
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(is_tree(parse_graph6(line)) for line in lines)

    def test_complete_bipartite(self):
        code, out = run_cli("gen", "complete-bipartite", "--a", "2", "--b", "3")
        g = parse_graph6(out.strip())
        assert g.n == 5 and g.m == 6


class TestEnumerate:
    def test_counts(self):
        code, out = run_cli("enumerate", "--n", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 8


class TestInvariant:
    def test_all_values(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(complete(4)) + "\n")
        code, out = run_cli("invariant", "--input", str(src))
        rec = json.loads(out)
        assert rec["values"]["p_o"] == 4
        assert rec["values"]["gamma_t"] == 2

    def test_single_with_certificate(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out = run_cli("invariant", "--what", "p_o", "--certify",
                            "--input", str(src))
        rec = json.loads(out)
        assert rec["values"]["p_o"] == 3
        cert = rec["certificates"]["p_o"]
        lab = VertexLabeling(tuple(cert["labels"]), cert["k"])
        assert is_opp(cycle(5), lab)

    def test_edgelist_input(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("3 2\n0 1\n1 2\n")
        code, out = run_cli("invariant", "--what", "chi2", "--input", str(src),
                            "--format", "edgelist")
        assert json.loads(out)["values"]["chi2"] == 3

    def test_multiple_graphs_stream(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("\n".join(to_graph6(g) for g in (cycle(4), path(3))) + "\n")
        code, out = run_cli("invariant", "--what", "rho_o", "--input", str(src))
        values = [json.loads(line)["values"]["rho_o"] for line in out.splitlines()]
        assert values == [2, 2]


class TestTransform:
    def test_two_step(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(cycle(6)) + "\n")
        code, out = run_cli("transform", "--op", "two-step", "--input", str(src))
        result = parse_graph6(out.strip())
        assert is_isomorphic(result, disjoint_union(complete(3), complete(3)))

    def test_square(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(path(3)) + "\n")
        code, out = run_cli("transform", "--op", "square", "--input", str(src))
        assert parse_graph6(out.strip()) == complete(3)

    def test_predicate(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out = run_cli("transform", "--op", "has-even-cycle",
                            "--input", str(src))
        assert json.loads(out)["value"] is False


class TestProduct:
    def test_cartesian_with_layout(self, tmp_path):
        layout_file = tmp_path / "layout.json"
        code, out = run_cli(
            "product", "--op", "cart", to_graph6(cycle(4)), to_graph6(complete(3)),
            "--layout-out", str(layout_file),
        )
        prod = parse_graph6(out.strip())
        assert prod.n == 12 and prod.m == 24
        layout = json.loads(layout_file.read_text())
        assert layout["kind"] == "product"
        assert layout["g_size"] == 4 and layout["h_size"] == 3
        assert layout["pairs"][5] == [1, 2]

    def test_corona_layout(self, tmp_path):
        layout_file = tmp_path / "layout.json"
        code, out = run_cli(
            "product", "--op", "corona", to_graph6(path(2)), to_graph6(path(2)),
            "--layout-out", str(layout_file),
        )
        assert parse_graph6(out.strip()).m == 7
        layout = json.loads(layout_file.read_text())
        assert layout["kind"] == "corona"
        assert layout["copy_ranges"] == [[2, 4], [4, 6]]


class TestTreeOpp:
    def test_labeling(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(path(5)) + "\n")
        code, out = run_cli("tree-opp", "--input", str(src))
        rec = json.loads(out)
        assert rec["classes"] == 2
        lab = VertexLabeling(tuple(rec["labels"]), rec["classes"])
        assert is_opp(path(5), lab)


class TestVerify:
    def test_t9_all_n4(self):
        code, out = run_cli("verify", "--theorem", "T9", "--all-n", "4")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 64
        assert sum(r["verdict"] == "report_only" for r in rows) == 6

    def test_exit_code_on_violation(self):
        # the corona formula has genuine counterexamples; smallest grid
        # that contains one must exit nonzero
        code, out = run_cli("verify", "--theorem", "T7", "--pair-grid", "1", "2")
        assert code == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["verdict"] == "violated" for r in rows)
        violated = [r for r in rows if r["verdict"] == "violated"]
        assert all("witness" in r for r in violated)

    def test_strict_even_cycle_free(self, tmp_path):
        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out = run_cli("verify", "--theorem", "T11", "--g6-file", str(src),
                            "--strict")
        assert code == 1

    def test_report_mode_even_cycle_free(self, tmp_path):
        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out = run_cli("verify", "--theorem", "T11", "--g6-file", str(src))
        assert code == 0
        row = json.loads(out)
        assert row["verdict"] == "report_only"
        assert row["lhs"] == 3 and row["rhs"] == 2

    def test_filter(self):
        code, out = run_cli("verify", "--theorem", "T11", "--all-n", "4",
                            "--filter", "even-cycle-free")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(r["verdict"] != "skipped" for r in rows)

    def test_t15(self):
        code, out = run_cli("verify", "--theorem", "T15", "--t-values", "1,2")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_byte_identical_reruns(self):
        args = ("verify", "--theorem", "T1,T2,T3", "--all-n", "4")
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        assert (code1, out1) == (code2, out2)

    def test_out_file_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "rows.jsonl"
        code, _ = run_cli("verify", "--theorem", "T3", "--all-n", "3",
                          "--out", str(out_file), "--summary")
        assert code == 0
        rows = out_file.read_text().strip().splitlines()
        assert len(rows) == 8
        table = capsys.readouterr().err
        assert "theorem" in table and "T3" in table

    def test_random_trees_corpus(self):
        args = ("verify", "--theorem", "T10", "--random-trees", "2", "6", "5", "9")
        code, out = run_cli(*args)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 25
        assert all(r["verdict"] == "equality" for r in rows)

    def test_mixed_kind_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--theorem", "T1,T4", "--all-n", "3")

    def test_missing_corpus_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--theorem", "T1")

    def test_missing_corpus_rejected_under_jobs(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--theorem", "T1", "--jobs", "2")

    def test_unknown_theorem_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--theorem", "T77", "--all-n", "3")

    def test_random_trees_past_graph6_cap_rejected_before_output(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "T10", "--random-trees", "60", "70", "1", "0"])
        assert "62" in str(exc.value.code)
        assert out.getvalue() == ""

    def test_jobs_match_serial(self):
        args = ("verify", "--theorem", "T1,T3", "--all-n", "4")
        _, serial = run_cli(*args)
        _, pooled = run_cli(*args, "--jobs", "2")
        assert serial == pooled

    @pytest.mark.parametrize("theorems, grid", [("T4,T5", ("3", "3")), ("T7", ("3", "2"))])
    def test_jobs_match_serial_on_pair_grids(self, theorems, grid):
        args = ("verify", "--theorem", theorems, "--pair-grid", *grid)
        serial = run_cli(*args)
        pooled = run_cli(*args, "--jobs", "2")
        assert serial == pooled
        if theorems == "T7":
            assert serial[0] == 1 and '"violated"' in serial[1]
