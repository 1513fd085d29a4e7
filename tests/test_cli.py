import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import openpack
import oracles
from openpack import solvers
from openpack.cli import CORPORA, _check_grid, build_parser, main
from openpack.formats import parse_graph6, to_graph6
from openpack.graph import (
    complete,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_tree,
    path,
    random_graph,
)
from openpack.harness import CORPUS_FILTERS, all_graphs_upto, pair_grid, run_corpus
from openpack.solvers import VertexLabeling, is_opp


def run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def expect_unrecognized(argv, named):
    """A flag the CLI does not define: argparse exits 2 and names it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(list(argv))
    assert exited.value.code == 2
    assert err.getvalue().endswith(f"error: unrecognized arguments: {named}\n")


def expect_input_error(argv, named):
    """Input the CLI cannot take: status 2, no stdout, and one stderr line
    ``openpack <command>: error: ...`` that names the bad value."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = err.getvalue().splitlines()
    assert (code, out.getvalue()) == (2, "")
    assert len(lines) == 1 and lines[0].startswith(f"openpack {argv[0]}: error: "), lines
    assert named in lines[0] and "Traceback" not in lines[0]


G62 = to_graph6(path(62))


class TestInputErrors:
    """Every command refuses out-of-range input the same way.  The verify
    cases of ``TestVerify`` go through the same ``expect_input_error``."""

    # (test id, argv, stdin, the text the stderr line must hold); each case
    # names itself, so a case added anywhere leaves every other id as it is
    CASES = [
        ("gen-path", ("gen", "path", "--n", "0"), None, "n=0"),
        ("gen-cycle", ("gen", "cycle", "--n", "2"), None, "n=2"),
        ("gen-complete", ("gen", "complete", "--n", "-1"), None, "n=-1"),
        ("gen-complete-bipartite", ("gen", "complete-bipartite", "--a", "2", "--b", "-1"), None,
         "a=2 b=-1"),
        ("gen-star", ("gen", "star", "--n", "-2"), None, "n=-2"),
        ("gen-random0", ("gen", "random", "--n", "5000", "--p", "0.1", "--seed", "1"), None,
         "at most 4096 vertices supported, got 5000"),
        ("gen-random1", ("gen", "random", "--n", "5", "--p", "1.5", "--seed", "1"), None, "1.5"),
        ("gen-tree-random0", ("gen", "tree-random", "--n", "0", "--seed", "1"), None, "n=0"),
        ("gen-psi0", ("gen", "psi", "--r", "1", "--s", "3"), None, "r=1"),
        ("gen-psi1", ("gen", "psi", "--r", "2", "--s", "3"), None, "s=3"),
        ("gen-ng", ("gen", "ng", "--k", "2"), None, "k=2"),
        ("gen-cart-sharp0", ("gen", "cart-sharp", "--m", "0", "--n", "3"), None, "m=0"),
        ("gen-cart-sharp1", ("gen", "cart-sharp", "--m", "1", "--n", "2"), None, "n=2"),
        ("enumerate0", ("enumerate", "--n", "9"), None, "n=9"),
        ("enumerate1", ("enumerate", "--n", "0"), None, "n=0"),
        ("invariant0", ("invariant", "--format", "edgelist"), "65 0\n",
         "instance has 65 vertices, exact solvers cap at 64"),
        ("invariant1", ("invariant", "--format", "edgelist"), "3 1\n0 5\n", "(0,5)"),
        ("transform", ("transform", "--op", "two-step", "--format", "edgelist"), "4097 0\n",
         "got 4097"),
        ("product0", ("product", "--op", "cart", G62, to_graph6(path(67))), None,
         "product would have 4154 vertices, cap is 4096"),
        ("product1", ("product", "--op", "corona", G62, to_graph6(path(66))), None,
         "product would have 4154 vertices, cap is 4096"),
        ("tree-opp", ("tree-opp",), "@\n", "n=1"),
        ("verify0", ("verify", "--theorem", "T1", "--all-n", "3", "--all-upto", "9"), None, "n=9"),
        ("verify1", ("verify", "--theorem", "T1", "--all-upto", "8"), None, "n=8"),
        ("verify2", ("verify", "--theorem", "T6", "--lex-grid", "3", "8"), None, "max_h=8"),
        # file errors; {tmp} is a fresh directory holding only nonascii.g6
        ("invariant2", ("invariant", "--input", "{tmp}/missing.g6"), None,
         "cannot read {tmp}/missing.g6"),
        ("verify3", ("verify", "--theorem", "T1", "--g6-file", "{tmp}/nonascii.g6"), None,
         "cannot read {tmp}/nonascii.g6: byte 0xc3"),
        ("verify4", ("verify", "--theorem", "T1", "--all-n", "3",
                     "--out", "{tmp}/no-dir/rows.jsonl"), None,
         "cannot write {tmp}/no-dir/rows.jsonl"),
        ("product2", ("product", "--op", "cart", "Bw", "Bw", "--layout-out",
                      "{tmp}/no-dir/layout.json"), None, "cannot write {tmp}/no-dir/layout.json"),
        # a count below one is refused, not an empty run
        ("gen-random2", ("gen", "random", "--n", "5", "--p", "0.5", "--seed", "1", "--count", "0"),
         None, "COUNT=0"),
        ("gen-tree-random1", ("gen", "tree-random", "--n", "5", "--seed", "1", "--count", "-3"),
         None, "COUNT=-3"),
        # a corpus flag the theorems do not read is refused, not ignored
        ("verify8", ("verify", "--theorem", "T4", "--pair-grid", "3", "3", "--filter", "connected"),
         None, "--filter does not apply to T4"),
        ("verify9", ("verify", "--theorem", "T1", "--all-n", "3", "--pair-grid", "2", "2"), None,
         "--pair-grid does not apply to T1"),
        ("verify10", ("verify", "--theorem", "T6", "--lex-grid", "3", "2", "--pair-grid", "2", "2"),
         None, "--pair-grid and --lex-grid"),
        ("verify11", ("verify", "--theorem", "T15", "--pair-grid", "2", "2"), None,
         "--pair-grid does not apply to T15"),
        ("verify12", ("verify", "--theorem", "", "--all-n", "3"), None, "no theorem selected"),
        # a bad graph6 record is named by its line, counting blank lines, from 1
        ("verify15", ("verify", "--theorem", "T14", "--g6-file", "-"), "\nzz\nA_\n",
         "error: line 2: graph6 payload for n=59 needs 286 characters, got 1"),
        ("invariant3", ("invariant",), "A_\n\nB\n", "error: line 3: graph6 payload for n=3"),
        # only "\n" ends a line: a form feed inside one splits no record
        ("invariant5", ("invariant", "--what", "p_o"), "A_\x0cBw\n",
         "error: line 1: graph6 payload for n=2 needs 1 characters, got 4"),
        ("invariant6", ("invariant", "--format", "edgelist"), "3 2\n0 1\x0c1 2\n",
         "error: edge-list line 2 ('0 1 1 2') must hold two vertex indices"),
        # every record is checked before the first row, so a bad one writes no row
        ("verify16", ("verify", "--theorem", "T14", "--g6-file", "-", "--out", "{tmp}/rows.jsonl"),
         "A_\nzz\n", "error: line 2: graph6 payload for n=59 needs 286 characters, got 1"),
        # a theorem named twice is refused, not run twice
        ("verify17", ("verify", "--theorem", "T1,T1", "--all-n", "2", "--summary"), None,
         "theorem id 'T1' given twice"),
        # every input graph is checked before the first line, and named by its place
        ("invariant4", ("invariant", "--what", "p_o"), "A_\nC~\n",
         "graph 2: instance has 4 vertices, exact solvers cap at 3"),
        ("tree-opp1", ("tree-opp",), "A_\nBw\nC~\n", "graph 2: not a tree on two or more"),
        ("tree-opp2", ("tree-opp",), "A_\n@\n", "graph 2: not a tree on two or more vertices: n=1"),
        # T15's range follows the solver cap, so a lowered cap refuses t before the first row
        ("verify18", ("verify", "--theorem", "T15", "--t-values", "1,2"), None, "1 <= t <= 1, got '2'"),
        ("verify19", ("verify", "--theorem", "T15", "--t-values", "5"), None, "1 <= t <= 4, got '5'"),
        ("verify20", ("verify", "--theorem", "T15", "--t-values", "1"), None,
         "C(4t+2) needs at least 6 vertices, but exact solvers cap at 5"),
        # so does a grid's largest product, by the cap that refuses it
        ("verify21", ("verify", "--theorem", "T4", "--pair-grid", "2", "2"), None,
         "--pair-grid 2 2 gives T4 products of 4 vertices, but exact solvers cap at 3"),
        ("verify22", ("verify", "--theorem", "T15"), None,
         "no corpus selected (use --all-n/--all-upto/--g6-file/--random-trees/--t-values)"),
        # a corpus flag that is given is read, even an empty path
        ("verify23", ("verify", "--theorem", "T1", "--g6-file", ""), None,
         "cannot read : No such file or directory"),
        ("invariant7", ("invariant",), "!\n", "line 1: malformed graph6 length header '!'"),
    ]
    # the environment a case runs in, by test id, when it is not the default one
    ENV = {"invariant4": {"OPENPACK_MAX_N": "3"}, "verify18": {"OPENPACK_MAX_N": "8"},
           "verify19": {"OPENPACK_MAX_N": "20"}, "verify20": {"OPENPACK_MAX_N": "5"},
           "verify21": {"OPENPACK_MAX_N": "3"}}

    @pytest.mark.parametrize("case, argv, stdin, named", CASES, ids=[c[0] for c in CASES])
    def test_refused_with_one_line(self, monkeypatch, tmp_path, case, argv, stdin, named):
        for name, value in self.ENV.get(case, {}).items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        (tmp_path / "nonascii.g6").write_bytes(b"B\xc3\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        expect_input_error(argv, named.replace("{tmp}", str(tmp_path)))
        if "--out" in argv:  # refused input leaves no output file
            assert not Path(argv[argv.index("--out") + 1]).exists()

    def test_case_ids_are_unique(self):
        ids = [case[0] for case in self.CASES]
        assert len(set(ids)) == len(ids), sorted(i for i in set(ids) if ids.count(i) > 1)

    # an order above the cap is refused before the first edge is drawn or built
    LARGE_ORDERS = [
        (("gen", "path", "--n", "100000000"), "100000000"),
        (("gen", "cycle", "--n", "100000000"), "100000000"),
        (("gen", "complete-bipartite", "--a", "100000000", "--b", "1"), "100000001"),
        (("gen", "random", "--n", "100000", "--p", "0.5", "--seed", "1"), "100000"),
        (("gen", "psi", "--r", "600", "--s", "8"), "4800"),
        (("gen", "ng", "--k", "100000"), "200000"),
    ]

    @pytest.mark.parametrize("argv, named", LARGE_ORDERS, ids=[c[0][1] for c in LARGE_ORDERS])
    def test_large_order_refused_before_building(self, search_deadline, argv, named):
        expect_input_error(argv, f"at most 4096 vertices supported, got {named}")

    def test_table_covers_every_command(self):
        def commands(parser):
            return next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        top = commands(build_parser())
        expected = {f"gen {family}" for family in commands(top["gen"])}
        expected |= set(top) - {"gen"}
        covered = {" ".join(argv[:2]) if argv[0] == "gen" else argv[0]
                   for _, argv, _, _ in self.CASES}
        assert covered == expected

    def test_corpus_table_matches_the_parser(self):
        # every verify option that selects instances is one row of CORPORA
        verify = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices["verify"]
        options = {a.dest for a in verify._actions if a.option_strings} - {"help"}
        assert options - set(CORPORA) == {"theorem", "filter", "out", "summary"}
        assert set(CORPORA) <= options

    def test_solver_cap_is_an_input_error(self, monkeypatch):
        monkeypatch.setenv("OPENPACK_MAX_N", "3")
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_graph6(complete(4)) + "\n"))
        expect_input_error(("invariant", "--what", "chi"), "4 vertices")

    def test_jobs_is_an_unrecognized_argument(self):
        # verify evaluates a corpus one way; a worker count is refused, not ignored
        expect_unrecognized(("verify", "--theorem", "T1", "--all-n", "3", "--jobs", "2"),
                            "--jobs 2")

    def test_tree_confirm_n_is_an_unrecognized_argument(self):
        # T10 proves every tree with two certificates and no search, so it has
        # no solver bound to set
        expect_unrecognized(("verify", "--theorem", "T10", "--all-n", "4",
                             "--tree-confirm-n", "3"), "--tree-confirm-n 3")

    def test_strict_is_an_unrecognized_argument(self):
        # T11 asserts on trees and reports on other even-cycle-free graphs, always
        expect_unrecognized(("verify", "--theorem", "T11", "--all-n", "5", "--strict"),
                            "--strict")

    def test_exit_status_of_a_real_process(self):
        env = dict(os.environ, PYTHONPATH=str(Path(openpack.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "openpack.cli", "enumerate", "--n", "9"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "openpack enumerate: error: enumeration needs 1 <= n <= 7, got n=9\n"

    @pytest.mark.parametrize("argv", [("enumerate", "--n", "6"),
                                      ("verify", "--theorem", "T1", "--all-n", "5")])
    def test_reader_closing_early_ends_quietly(self, argv):
        # as in `openpack enumerate --n 6 | head -1`: status 128 + SIGPIPE, empty stderr
        env = dict(os.environ, PYTHONPATH=str(Path(openpack.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "openpack.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_certificate_error_still_raised(self, monkeypatch):
        # a wrong certificate is a bug, not an input error: it keeps its traceback
        class BadKernel:
            @staticmethod
            def chromatic_number(n, adj, memo=None):
                return 1, [1] * n

        monkeypatch.setattr(solvers, "_kernel", BadKernel)
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_graph6(path(3)) + "\n"))
        with pytest.raises(solvers.CertificateError):
            run_cli("invariant", "--what", "chi")


def test_readme_cli_flags_are_parser_options():
    # every --flag README's CLI section shows is one some (sub)parser takes
    def option_strings(parser):
        for action in parser._actions:
            yield from action.option_strings
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from option_strings(sub)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    strays = shown - set(option_strings(build_parser()))
    assert shown and not strays, sorted(strays)


class TestGen:
    def test_cycle(self):
        code, out = run_cli("gen", "cycle", "--n", "5")
        assert code == 0
        assert parse_graph6(out.strip()) == cycle(5)

    def test_psi(self):
        code, out = run_cli("gen", "psi", "--r", "2", "--s", "2")
        assert oracles.isomorphic(parse_graph6(out.strip()), cycle(4))

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

    def test_records_are_the_encoder_lines(self):
        # 1,024 records, written in blocks: the bytes of one line per graph
        code, out = run_cli("enumerate", "--n", "5")
        assert code == 0
        assert out == "".join(to_graph6(g) + "\n" for g in enumerate_all_graphs(5))


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

    @pytest.mark.parametrize("certify", [(), ("--certify",)])
    def test_undefined_invariant_left_out(self, tmp_path, certify):
        # K1 and 2K1 have isolated vertices, so gamma_t is undefined on them
        src = tmp_path / "in.g6"
        src.write_text("@\nA_\nA?\n")
        code, out = run_cli("invariant", "--what", "gamma_t", *certify,
                            "--input", str(src))
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert [rec["values"] for rec in recs] == [{}, {"gamma_t": 2}, {}]
        if certify:
            assert [sorted(rec["certificates"]) for rec in recs] == [[], ["gamma_t"], []]

    def test_graph_past_62_vertices_is_named(self):
        # printf '64 1\n0 63\n' | openpack invariant --format edgelist --what p_o
        env = dict(os.environ, PYTHONPATH=str(Path(openpack.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "openpack.cli", "invariant", "--format", "edgelist",
             "--what", "p_o"], input="64 1\n0 63\n", env=env, capture_output=True,
            text=True, timeout=60)
        name = to_graph6(from_edge_list(64, [(0, 63)]))
        assert name.startswith("~?@?")  # the long size form of n = 64
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            {"graph6": name, "values": {"p_o": 1}}]


class TestCertificateBytes:
    """The exact stdout of ``invariant --certify``, certificates included,
    pinned by SHA-256."""

    UPTO5_ALL = "45eb7fab0920fa1bb098e6f5e80f0799dbc4c3af8f17a4c5c26aa47cbe3edde2"
    # random_graph(9, 0.4, seed) for seeds 0, 1, 2, one line each
    RANDOM9 = {
        "all": "8833aac3b2ccad06288dd3d2f78a89bd92db0e38a86acf59858b7a2c09c3585a",
        "chi": "60e146f5738f1df21065c43666895303338f2fa610b84991ce501f91d0d87106",
        "chi2": "494d32092fe2ced0125442eda7faf1db6cf18bb3dff72752654d82a6b4b02ee4",
        "gamma": "e22edb33227a3a69fbe2fc6a2672f32c60bc3deede2d962ecc9bed40cd4b2f1a",
        "gamma_t": "49b98798cc2267f965aa37d97b402b91b00388df9b504a6e4b60be2646e90882",
        "omega_N": "dd9b88d91714af879b9640fe5d6c6a0d7cf7ee5aaa5ddaccb299f6a51071c480",
        "p_o": "944a5e236488d0ef3d8cb0d1c6cd030c08adbfdef134e78455bde088b25ba794",
        "rho": "c203263524bed56b1bf1538c99c34e2694f716bec70602c5f5337ede374e1606",
        "rho_o": "3485c377f35f4a865e0a992d3464ab07420e9af44b4bd6a3ef60b6e74e595a77",
    }

    @staticmethod
    def certify_digest(tmp_path, what, graphs):
        src = tmp_path / "in.g6"
        src.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        code, out = run_cli("invariant", "--what", what, "--certify", "--input", str(src))
        assert code == 0
        return hashlib.sha256(out.encode("ascii")).hexdigest()

    def test_all_graphs_upto_5(self, tmp_path):
        graphs = list(all_graphs_upto(5))
        assert len(graphs) == 1099
        assert self.certify_digest(tmp_path, "all", graphs) == self.UPTO5_ALL

    def test_every_what_choice_is_pinned(self):
        assert sorted(self.RANDOM9) == sorted([*solvers.INVARIANTS, "all"])

    @pytest.mark.parametrize("what", sorted(RANDOM9))
    def test_random_graphs(self, tmp_path, what):
        graphs = [random_graph(9, 0.4, seed) for seed in range(3)]
        assert self.certify_digest(tmp_path, what, graphs) == self.RANDOM9[what]


class TestVerifyBytes:
    """The exact rows of ``verify`` on small corpora, pinned by SHA-256 of each
    theorem's lines in order, with the run's exit status."""

    # name: (verify arguments, exit status, {theorem: digest of its lines})
    RUNS = {
        "single-upto5": (("T1,T2,T3,T8,T9,T10,T11,T12,T13,T14", "--all-upto", "5"), 0, {
            "T1": "c5befcbfbf253d7f2c5911c5ef20b0e1e4d413d5c2031c2cbe89597ff28e0cc9",
            "T2": "855c9b3e7ee04f0ee7f6be9e0c226f15819c5581d2cbfb7bb284c141abcdbbf3",
            "T3": "2a28c3e3ed5b9d264f440bd7756ba9d6181592cd0c2c5bd9dbf162683e52f505",
            "T8": "64c1ad4a112f5582bb57bd53890ecc6ddd26e12895718b12765d468abcbbddab",
            "T9": "1535579fdf3eb1489fdbcbeee2760c41f027c543c0f9b24fab884d4a4e800bd0",
            "T10": "cbf541900b2becafa22360f9c42bfdc80df6ef1f6b91defc2367f555811dfa1d",
            "T11": "aae59304c32c46d0b75f4a39a31013bdf5f8c804c9c634b1440e8d9549f63af9",
            "T12": "08578fe622ebbcaaff6c6738351de350ee169b1b48666c2d1cd1bb3d8c6306c5",
            "T13": "111367a3767558b14eb8a7720cc5f687083ceaf99c7a17deb0c75ac42c6c7344",
            "T14": "69d673f789a53bb5633798493f4b9e2eab7c63778b39679c0fdc421e51a14888",
        }),
        # 20 violated T7 rows: the corona formula's counterexamples
        "pair-grid-3-3": (("T4,T5,T6,T7", "--pair-grid", "3", "3"), 1, {
            "T4": "44ee0d9368f773865388923ca6715a915fac3916542c8139782f478b35796c27",
            "T5": "1b1b2fc36f740abb77f310d55badbe898861b0972f5ff7cdfc816314a4d68f3c",
            "T6": "81298d1004ccd4f057c95976dbb1da6c88cfdd4677dc1703ddd4feb839d39b7d",
            "T7": "9abf726793beb7bbeaa8ebc83fe11039440976a8bc5dc9dbab2610c55aa55b11",
        }),
        "lex-grid-4-3": (("T6", "--lex-grid", "4", "3"), 0, {
            "T6": "5534469ab1ed48d3c8dc3bec2e0fee4d586fb2380fee69db351fb7c71ba5b9e9",
        }),
        "t-values-1-3": (("T15", "--t-values", "1,2,3"), 0, {
            "T15": "68e30b3ee60dfc34aa0d99aa00b4ffb9b6af63fe6083b8a57b3b6a2d75256a11",
        }),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_rows_pinned(self, name):
        (theorems, *corpus), status, expected = self.RUNS[name]
        code, out = run_cli("verify", "--theorem", theorems, *corpus)
        lines: dict[str, list[str]] = {}
        for line in out.splitlines(keepends=True):
            lines.setdefault(json.loads(line)["theorem"], []).append(line)
        digests = {tid: hashlib.sha256("".join(rows).encode("ascii")).hexdigest()
                   for tid, rows in lines.items()}
        assert (code, digests) == (status, expected)


class TestTransform:
    def test_two_step(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(to_graph6(cycle(6)) + "\n")
        code, out = run_cli("transform", "--op", "two-step", "--input", str(src))
        result = parse_graph6(out.strip())
        assert oracles.isomorphic(result, disjoint_union(complete(3), complete(3)))

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
    def test_one_write_per_instance(self):
        # the 8 labelled graphs on 3 vertices, 4 rows each: one write apiece
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        with contextlib.redirect_stdout(Recording()):
            assert main(["verify", "--theorem", "T1,T2", "--all-n", "3"]) == 0
        instances = [{json.loads(line)["instance"] for line in text.splitlines()}
                     for text in writes]
        assert [text.count("\n") for text in writes] == [4] * 8
        assert all(len(names) == 1 for names in instances)
        assert len(set.union(*instances)) == 8

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

    def test_filters_combine(self):
        # each --filter keeps its own predicate, so two filters keep the
        # graphs that pass both
        filters = ("connected", "even-cycle-free")
        keep = sum(all(CORPUS_FILTERS[name](g) for name in filters)
                   for g in enumerate_all_graphs(5))
        code, out = run_cli("verify", "--theorem", "T3", "--all-n", "5",
                            "--filter", filters[0], "--filter", filters[1])
        assert code == 0 and len(out.splitlines()) == keep

    def test_t15(self):
        code, out = run_cli("verify", "--theorem", "T15", "--t-values", "1,2")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_t15_beside_single_graph_theorems(self):
        # T15 is a single-graph theorem: its cycles are a corpus like any other
        code, out = run_cli("verify", "--theorem", "T1,T15", "--t-values", "1,2")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert [r["theorem"] for r in rows] == ["T1", "T1", "T15", "T15", "T15"] * 2
        assert [r["instance"] for r in rows] == ["EhEG"] * 5 + ["IhCGGC@_G"] * 5

    def test_t15_skips_a_relabelled_cycle(self, monkeypatch):
        # EYEG is C6 with edges 0-2, 2-1, 1-3, 3-4, 4-5, 5-0: the map fits
        # cycle's labelling only, so the graph is skipped, not flagged
        monkeypatch.setattr(sys, "stdin", io.StringIO("EYEG\n"))
        code, out = run_cli("verify", "--theorem", "T15", "--g6-file", "-")
        assert (code, [json.loads(line)["verdict"] for line in out.splitlines()]) == (
            0, ["skipped"])

    def test_t15_up_to_the_solver_cap(self, monkeypatch, search_deadline):
        # C(62), the largest cycle C(4t+2) within the default cap of 64
        monkeypatch.delenv("OPENPACK_MAX_N", raising=False)
        code, out = run_cli("verify", "--theorem", "T15",
                            "--t-values", ",".join(map(str, range(1, 16))))
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 45
        assert {r["verdict"] for r in rows} == {"equality"}

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
        expect_input_error(("verify", "--theorem", "T1,T4", "--all-n", "3"), "one kind")

    def test_missing_corpus_rejected(self):
        expect_input_error(("verify", "--theorem", "T1"), "no corpus selected")

    def test_unknown_theorem_rejected(self):
        expect_input_error(("verify", "--theorem", "T77", "--all-n", "3"), "'T77'")

    def test_random_trees_past_62_vertices_are_named(self):
        code, out = run_cli("verify", "--theorem", "T10", "--random-trees", "60", "70", "1", "0")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and all(r["verdict"] == "equality" and r["lhs"] == r["rhs"] for r in rows)
        assert [parse_graph6(r["instance"]).n for r in rows] == list(range(60, 71))

    def test_random_trees_are_equalities_at_every_size(self):
        code, out = run_cli("verify", "--theorem", "T10", "--random-trees", "2", "500", "1", "0")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 499
        assert all(r["verdict"] == "equality" for r in rows)

    def test_largest_random_tree_is_an_equality(self):
        code, out = run_cli("verify", "--theorem", "T10",
                            "--random-trees", "4096", "4096", "1", "0")
        row, = map(json.loads, out.splitlines())
        tree = parse_graph6(row["instance"])
        delta = max(map(int.bit_count, tree.adj))
        assert code == 0 and tree.n == 4096
        assert (row["verdict"], row["lhs"], row["rhs"]) == ("equality", delta, delta)

    def test_random_trees_past_vertex_cap_rejected_before_output(self):
        expect_input_error(
            ("verify", "--theorem", "T10", "--random-trees", "60", "5000", "1", "0"),
            "NMAX=5000")

    def test_record_past_solver_cap_is_an_input_error(self, monkeypatch):
        # graph6 reads a 65-vertex record; the solver cap, not its name, refuses it
        monkeypatch.delenv("OPENPACK_MAX_N", raising=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(to_graph6(path(65)) + "\n"))
        expect_input_error(("verify", "--theorem", "T1", "--g6-file", "-"),
                           "instance has 65 vertices, exact solvers cap at 64")

    def test_record_past_solver_cap_is_named(self, tmp_path, monkeypatch):
        # the third record, after a blank line, is refused as invariant names a graph
        monkeypatch.delenv("OPENPACK_MAX_N", raising=False)
        src = tmp_path / "corpus.g6"
        src.write_text(f"{to_graph6(path(3))}\n{to_graph6(cycle(4))}\n\n{to_graph6(path(65))}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--theorem", "T1", "--g6-file", str(src)])
        assert code == 2
        assert err.getvalue() == ("openpack verify: error: graph 3: instance has 65 vertices, "
                                  "exact solvers cap at 64\n")
        # the rows of graphs 1-2 are written before the refusal
        instances = [json.loads(line)["instance"] for line in out.getvalue().splitlines()]
        assert instances == [to_graph6(path(3))] * 2 + [to_graph6(cycle(4))] * 2

    def test_pair_past_solver_cap_is_named(self, monkeypatch):
        # pair 37 of the 3x3 grid is (first 3-vertex G, first 3-vertex H): the
        # first with a 9-vertex product
        monkeypatch.setenv("OPENPACK_MAX_N", "8")
        rows = run_corpus(["T4"], pair_grid(3, 3))
        assert len(list(islice(rows, 72))) == 72  # the rows of pairs 1-36
        with pytest.raises(solvers.SolverCapError,
                           match=r"^pair 37: instance has 9 vertices, exact solvers cap at 8$"):
            next(rows)
        # verify refuses the grid by its largest product before pair 1's rows
        expect_input_error(("verify", "--theorem", "T4", "--pair-grid", "3", "3"),
                           "--pair-grid 3 3 gives T4 products of 9 vertices, "
                           "but exact solvers cap at 8")

    @pytest.mark.parametrize("bad", [("0", "2", "1", "1"), ("5", "3", "1", "1"),
                                     ("3", "3", "-1", "1"), ("3", "3", "0", "1")])
    def test_random_trees_bad_range_rejected_before_output(self, bad):
        expect_input_error(("verify", "--theorem", "T10", "--random-trees", *bad),
                           "NMIN <= NMAX")

    # the ids name the values as the messages did when the CLI checked the
    # enumeration range itself; enumerate_all_graphs, all_graphs_upto,
    # pair_grid and lex_grid now name their own parameters
    @pytest.mark.parametrize("argv, named", [
        pytest.param(("T1", "--all-n", "0"), "got n=0", id="argv0-N=0"),
        pytest.param(("T1", "--all-n", "8"), "got n=8", id="argv1-N=8"),
        pytest.param(("T1", "--all-upto", "0"), "got n=0", id="argv2-N=0"),
        pytest.param(("T1", "--all-upto", "8"), "got n=8", id="argv3-N=8"),
        pytest.param(("T4", "--pair-grid", "0", "0"), "got max_g=0", id="argv4-MAXG=0 MAXH=0"),
        pytest.param(("T4", "--pair-grid", "3", "8"), "got max_h=8", id="argv5-MAXG=3 MAXH=8"),
        pytest.param(("T6", "--lex-grid", "1", "3"), "got max_g=1", id="argv6-MAXG=1 MAXH=3"),
        (("T4", "--pair-grid", "5", "5"), "25 vertices"),
        (("T6", "--lex-grid", "7", "4"), "28 vertices"),
        (("T5,T7", "--pair-grid", "5", "4"), "T7 products of 25 vertices"),
    ])
    def test_enumerated_corpus_bad_range_rejected_before_output(self, argv, named):
        theorem, *corpus = argv
        expect_input_error(("verify", "--theorem", theorem, *corpus), named)

    @pytest.mark.parametrize("values, named", [
        ("1,0", "'0'"), ("1,x", "'x'"), ("1,", "''"), ("-2", "'-2'"), ("1,16", "'16'"),
    ])
    def test_bad_t_values_rejected_before_output(self, monkeypatch, values, named):
        monkeypatch.delenv("OPENPACK_MAX_N", raising=False)
        expect_input_error(("verify", "--theorem", "T15", "--t-values", values), f"got {named}")

    @pytest.mark.parametrize("flag, grid, theorems", [
        ("--pair-grid", (4, 5), ["T7"]), ("--pair-grid", (4, 6), ["T4", "T5"]),
        ("--lex-grid", (2, 7), ["T6", "T7"]), ("--pair-grid", (1, 1), ["T7"]),
    ])
    def test_grids_at_the_product_cap_accepted(self, flag, grid, theorems):
        # the largest products are exactly 24 vertices (or fewer): no exit
        _check_grid(flag, *grid, theorems)
