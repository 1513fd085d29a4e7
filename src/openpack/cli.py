"""Command-line interface: gen, invariant, transform, product, tree-opp, verify, enumerate."""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions, harness, solvers, transforms
from .constructions import PsiSpec
from .formats import GRAPH6_MAX_N, parse_edge_list_text, parse_graph6, to_graph6
from .graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    enumerate_all_graphs,
    path,
    random_graph,
    random_tree,
    star,
)
from .products import cartesian, corona, direct, lexicographic, strong
from .solvers import VertexLabeling, VertexSet


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cert_json(cert):
    if isinstance(cert, VertexSet):
        return {"vertices": cert.members()}
    if isinstance(cert, VertexLabeling):
        return {"labels": list(cert.labels), "k": cert.k}
    raise TypeError(f"unexpected certificate {cert!r}")


def _read_text(path_arg: str) -> str:
    if path_arg == "-":
        return sys.stdin.read()
    with open(path_arg, "r", encoding="ascii") as fh:
        return fh.read()


def _input_graphs(args) -> list[Graph]:
    text = _read_text(args.input)
    if args.format == "edgelist":
        return [parse_edge_list_text(text)]
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    for g in _generate_family(args):
        print(to_graph6(g))
    return 0


def _generate_family(args):
    fam = args.family
    if fam == "path":
        yield path(args.n)
    elif fam == "cycle":
        yield cycle(args.n)
    elif fam == "complete":
        yield complete(args.n)
    elif fam == "complete-bipartite":
        yield complete_bipartite(args.a, args.b)
    elif fam == "star":
        yield star(args.n)
    elif fam == "random":
        for i in range(args.count):
            yield random_graph(args.n, args.p, args.seed + i)
    elif fam == "tree-random":
        for i in range(args.count):
            yield random_tree(args.n, args.seed + i)
    elif fam == "psi":
        yield constructions.psi_graph(PsiSpec(args.r, args.s))
    elif fam == "ng":
        yield constructions.ng_extremal(args.k)
    elif fam == "cart-sharp":
        yield constructions.cart_sharp_instance(args.m, args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(fam)


# ---------------------------------------------------------------------------
# invariant

_SINGLE_SOLVERS = {
    "p_o": solvers.open_packing_partition_number,
    "chi2": solvers.two_distance_chromatic,
    "chi": solvers.chromatic_number,
    "rho": solvers.packing_number,
    "rho_o": solvers.open_packing_number,
    "gamma": solvers.domination_number,
    "gamma_t": solvers.total_domination_number,
    "omega_N": solvers.omega_of_two_step,
}


def cmd_invariant(args) -> int:
    for g in _input_graphs(args):
        record: dict = {"graph6": to_graph6(g)}
        if args.what == "all":
            report = solvers.full_report(g, with_certificates=args.certify)
            record["values"] = report.values
            if args.certify:
                record["certificates"] = {
                    name: _cert_json(cert) for name, cert in report.certificates.items()
                }
        else:
            value, cert = _SINGLE_SOLVERS[args.what](g)
            record["values"] = {args.what: value}
            if args.certify:
                record["certificates"] = {args.what: _cert_json(cert)}
        print(_dump(record))
    return 0


# ---------------------------------------------------------------------------
# transform


def cmd_transform(args) -> int:
    for g in _input_graphs(args):
        if args.op == "two-step":
            print(to_graph6(transforms.two_step(g)))
        elif args.op == "square":
            print(to_graph6(transforms.closed_neighborhood_graph(g)))
        else:
            predicate = {
                "every-edge-on-triangle": transforms.every_edge_on_triangle,
                "has-even-cycle": transforms.has_even_cycle,
                "is-chordal": transforms.is_chordal,
            }[args.op]
            print(_dump({"graph6": to_graph6(g), "op": args.op, "value": predicate(g)}))
    return 0


# ---------------------------------------------------------------------------
# product


def cmd_product(args) -> int:
    g = parse_graph6(args.graph_a)
    h = parse_graph6(args.graph_b)
    op = {
        "cart": cartesian,
        "direct": direct,
        "strong": strong,
        "lex": lexicographic,
        "corona": corona,
    }[args.op]
    prod, layout = op(g, h)
    print(to_graph6(prod))
    if args.layout_out:
        with open(args.layout_out, "w", encoding="ascii") as fh:
            fh.write(_dump(layout.to_json_obj()) + "\n")
    return 0


# ---------------------------------------------------------------------------
# tree-opp


def cmd_tree_opp(args) -> int:
    for g in _input_graphs(args):
        labeling = constructions.tree_opp(g)
        print(_dump({
            "graph6": to_graph6(g),
            "labels": list(labeling.labels),
            "classes": labeling.k,
        }))
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    for g in enumerate_all_graphs(args.n):
        print(to_graph6(g))
    return 0


# ---------------------------------------------------------------------------
# verify


def _theorem_kind(theorems: list[str]) -> str:
    kinds = set()
    for tid in theorems:
        if tid in harness.SINGLE_CHECKS:
            kinds.add("single")
        elif tid in harness.PAIR_CHECKS:
            kinds.add("pair")
        elif tid in harness.PARAM_CHECKS:
            kinds.add("param")
        else:
            raise SystemExit(f"unknown theorem id {tid!r}")
    if len(kinds) != 1:
        raise SystemExit("cannot mix single-graph, pair, and parameter theorems in one run")
    return kinds.pop()


def _single_corpus(args):
    if args.all_n is not None:
        yield from enumerate_all_graphs(args.all_n)
    if args.all_upto is not None:
        yield from harness.all_graphs_upto(args.all_upto)
    if args.g6_file:
        text = _read_text(args.g6_file)
        for line in text.splitlines():
            if line.strip():
                yield parse_graph6(line)
    if args.random_trees:
        n_lo, n_hi, count, seed = args.random_trees
        for n in range(n_lo, n_hi + 1):
            for i in range(count):
                yield random_tree(n, seed + 1000 * n + i)


def cmd_verify(args) -> int:
    theorems = [t.strip() for t in args.theorem.split(",") if t.strip()]
    kind = _theorem_kind(theorems)

    if kind == "single":
        # checked here, not in the lazy corpus: no row is written first, and a
        # SystemExit raised while a --jobs pool reads the corpus would hang it
        if (args.all_n is None and args.all_upto is None and not args.g6_file
                and not args.random_trees):
            raise SystemExit("no corpus selected (use --all-n/--all-upto/--g6-file/--random-trees)")
        if args.random_trees:
            n_lo, n_hi, count, _ = args.random_trees
            if not 1 <= n_lo <= n_hi or count < 1:
                raise SystemExit(
                    f"--random-trees needs 1 <= NMIN <= NMAX and COUNT >= 1, "
                    f"got NMIN={n_lo} NMAX={n_hi} COUNT={count}"
                )
            if n_hi > GRAPH6_MAX_N:
                raise SystemExit(
                    f"--random-trees NMAX is {n_hi}, but rows name instances "
                    f"by graph6, which caps at {GRAPH6_MAX_N} vertices"
                )
        instances = _single_corpus(args)
        for name in args.filter or []:
            predicate = harness.CORPUS_FILTERS[name]
            instances = (g for g in instances if predicate(g))
    elif kind == "pair":
        if args.lex_grid:
            instances = harness.lex_grid(*args.lex_grid)
        elif args.pair_grid:
            instances = harness.pair_grid(*args.pair_grid)
        else:
            raise SystemExit("pair theorems need --pair-grid or --lex-grid")
    else:
        if not args.t_values:
            raise SystemExit("T15 needs --t-values, e.g. --t-values 1,2,3")
        instances = [int(t) for t in args.t_values.split(",")]

    options = harness.RunOptions(strict=args.strict, tree_confirm_n=args.tree_confirm_n)
    out = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    counts: dict[str, dict[str, int]] = {}
    violated = 0
    try:
        for row in harness.run_corpus(theorems, instances, jobs=args.jobs, options=options):
            out.write(row.to_json() + "\n")
            per = counts.setdefault(row.theorem, {})
            per[row.verdict] = per.get(row.verdict, 0) + 1
            if row.verdict == harness.VIOLATED:
                violated += 1
    finally:
        if args.out:
            out.close()
    if args.summary:
        print(harness.render_summary(counts), file=sys.stderr)
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openpack",
        description="Exact open packing partition numbers and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit family graphs as graph6")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for fam in ("path", "cycle", "complete", "star"):
        p = gen_sub.add_parser(fam)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(func=cmd_gen)
    p = gen_sub.add_parser("complete-bipartite")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_gen)
    p = gen_sub.add_parser("random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)
    p = gen_sub.add_parser("tree-random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)
    p = gen_sub.add_parser("psi")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_gen)
    p = gen_sub.add_parser("ng")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_gen)
    p = gen_sub.add_parser("cart-sharp")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    inv = sub.add_parser("invariant", help="compute invariants of input graphs")
    inv.add_argument("--what", choices=sorted(_SINGLE_SOLVERS) + ["all"], default="all")
    inv.add_argument("--certify", action="store_true")
    inv.add_argument("--input", default="-")
    inv.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    inv.set_defaults(func=cmd_invariant)

    tr = sub.add_parser("transform", help="apply a transform or predicate")
    tr.add_argument("--op", required=True, choices=[
        "two-step", "square", "every-edge-on-triangle", "has-even-cycle", "is-chordal",
    ])
    tr.add_argument("--input", default="-")
    tr.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    tr.set_defaults(func=cmd_transform)

    pr = sub.add_parser("product", help="product of two graph6 graphs")
    pr.add_argument("--op", required=True,
                    choices=["cart", "direct", "strong", "lex", "corona"])
    pr.add_argument("graph_a")
    pr.add_argument("graph_b")
    pr.add_argument("--layout-out", default=None,
                    help="write the JSON layout sidecar to this file")
    pr.set_defaults(func=cmd_product)

    to = sub.add_parser("tree-opp", help="optimal open packing partition of trees")
    to.add_argument("--input", default="-")
    to.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    to.set_defaults(func=cmd_tree_opp)

    en = sub.add_parser("enumerate", help="all labeled graphs on n vertices")
    en.add_argument("--n", type=int, required=True)
    en.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="run theorem checks over a corpus")
    ver.add_argument("--theorem", required=True,
                     help="comma-separated ids among T1..T15")
    ver.add_argument("--all-n", type=int, default=None,
                     help="all labeled graphs on exactly N vertices")
    ver.add_argument("--all-upto", type=int, default=None,
                     help="all labeled graphs on 1..N vertices")
    ver.add_argument("--g6-file", default=None, help="graph6 lines ('-' for stdin)")
    ver.add_argument("--random-trees", nargs=4, type=int, default=None,
                     metavar=("NMIN", "NMAX", "COUNT", "SEED"))
    ver.add_argument("--pair-grid", nargs=2, type=int, default=None,
                     metavar=("MAXG", "MAXH"))
    ver.add_argument("--lex-grid", nargs=2, type=int, default=None,
                     metavar=("MAXG", "MAXH"))
    ver.add_argument("--t-values", default=None)
    ver.add_argument("--filter", action="append",
                     choices=sorted(harness.CORPUS_FILTERS))
    ver.add_argument("--strict", action="store_true",
                     help="assert the even-cycle-free equality instead of reporting it")
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--tree-confirm-n", type=int,
                     default=harness.TREE_SOLVER_CONFIRM_N)
    ver.add_argument("--out", default=None, help="write JSONL rows to a file")
    ver.add_argument("--summary", action="store_true",
                     help="print a per-theorem verdict table to stderr")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
