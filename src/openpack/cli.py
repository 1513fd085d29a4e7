"""Command-line interface: gen, invariant, transform, product, tree-opp, verify, enumerate.
Every line it reads or writes goes through ``openpack.formats``."""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from . import constructions, harness, solvers, transforms
from .formats import (
    JSON_LINE,
    FormatError,
    parse_edge_list_text,
    parse_graph6,
    parse_graph6_lines,
    to_graph6,
)
from .graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    enumerate_all_graphs,
    is_tree,
    path,
    random_graph,
    random_tree,
    star,
)
from .products import PRODUCTS, order

# openpack's errors for input it cannot take; anything else raised is a bug
INPUT_ERRORS = (GraphError, solvers.SolverCapError, solvers.UndefinedInvariantError)


def _read_text(path_arg: str) -> str:
    try:
        if path_arg == "-":
            return sys.stdin.read()
        with open(path_arg, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path_arg}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path_arg}: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start} is not ASCII") from exc


def _open_out(path_arg: str):
    try:
        return open(path_arg, "w", encoding="ascii")
    except OSError as exc:
        raise GraphError(f"cannot write {path_arg}: {exc.strerror or exc}") from exc


def _input_graphs(args, refuse=lambda g: None) -> list[Graph]:
    """Every input graph, read before any output; ``refuse(g)`` may say why g is refused."""
    text = _read_text(args.input)
    graphs = ([parse_edge_list_text(text)] if args.format == "edgelist"
              else list(parse_graph6_lines(text)))
    for i, reason in enumerate(map(refuse, graphs), start=1):
        if reason:
            raise GraphError(f"graph {i}: {reason}")
    return graphs


# ---------------------------------------------------------------------------
# gen


# Every gen family: its builder and the flags it takes, by parameter name, all
# ints but --p.  A family with --seed also takes --count, the number of graphs,
# each from the seed after the last one's.
FAMILIES = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "star": (star, ("n",)),
    "complete-bipartite": (complete_bipartite, ("a", "b")),
    "random": (random_graph, ("n", "p", "seed")),
    "tree-random": (random_tree, ("n", "seed")),
    "psi": (constructions.psi_graph, ("r", "s")),
    "ng": (constructions.ng_extremal, ("k",)),
    "cart-sharp": (constructions.cart_sharp_instance, ("m", "n")),
}


def cmd_gen(args) -> int:
    build, flags = FAMILIES[args.family]
    count = getattr(args, "count", 1)
    if count < 1:
        raise GraphError(f"--count needs COUNT >= 1, got COUNT={count}")
    given = {flag: getattr(args, flag) for flag in flags}
    for i in range(count):
        if i:
            given["seed"] += 1
        print(to_graph6(build(**given)))
    return 0


# ---------------------------------------------------------------------------
# invariant

def cmd_invariant(args) -> int:
    cap = solvers.solver_cap()
    for g in _input_graphs(args, lambda g: g.n > cap and
                           f"instance has {g.n} vertices, exact solvers cap at {cap}"):
        record: dict = {"graph6": to_graph6(g)}
        if args.what == "all":
            report = solvers.full_report(g, with_certificates=args.certify)
            values, certificates = report.values, report.certificates
        else:
            try:
                value, cert = getattr(solvers.GraphFacts(g), args.what)
                values, certificates = {args.what: value}, {args.what: cert}
            except solvers.UndefinedInvariantError:  # left out, as full_report does
                values, certificates = {}, {}
        record["values"] = values
        if args.certify:
            record["certificates"] = {
                name: cert.to_json_obj() for name, cert in certificates.items()
            }
        print(JSON_LINE.encode(record))
    return 0


# ---------------------------------------------------------------------------
# transform


TRANSFORMS = {
    "two-step": transforms.two_step,
    "square": transforms.closed_neighborhood_graph,
}
PREDICATES = {
    "every-edge-on-triangle": transforms.every_edge_on_triangle,
    "has-even-cycle": transforms.has_even_cycle,
    "is-chordal": transforms.is_chordal,
}


def cmd_transform(args) -> int:
    for g in _input_graphs(args):
        if args.op in TRANSFORMS:
            print(to_graph6(TRANSFORMS[args.op](g)))
        else:
            value = PREDICATES[args.op](g)
            print(JSON_LINE.encode({"graph6": to_graph6(g), "op": args.op, "value": value}))
    return 0


# ---------------------------------------------------------------------------
# product


def cmd_product(args) -> int:
    g = parse_graph6(args.graph_a)
    h = parse_graph6(args.graph_b)
    prod, layout = PRODUCTS[args.op](g, h)
    if args.layout_out:
        with _open_out(args.layout_out) as fh:
            fh.write(JSON_LINE.encode(layout.to_json_obj()) + "\n")
    print(to_graph6(prod))
    return 0


# ---------------------------------------------------------------------------
# tree-opp


def cmd_tree_opp(args) -> int:
    for g in _input_graphs(args, lambda g: not (g.n >= 2 and is_tree(g)) and
                           f"not a tree on two or more vertices: n={g.n}, m={g.m}"):
        labeling = constructions.tree_opp(g)
        print(JSON_LINE.encode({
            "graph6": to_graph6(g),
            "labels": list(labeling.labels),
            "classes": labeling.k,
        }))
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    records = map(to_graph6, enumerate_all_graphs(args.n))
    # one write per 4,096 records, not one print each
    while block := list(islice(records, 4096)):
        sys.stdout.write("\n".join(block) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _single_corpus(args):
    """The chained corpora of the single-graph flags, each one's sizes checked
    now, before the first graph is asked for."""
    parts = []
    if args.all_n is not None:
        parts.append(enumerate_all_graphs(args.all_n))
    if args.all_upto is not None:
        parts.append(harness.all_graphs_upto(args.all_upto))
    if args.g6_file:
        parts.append(parse_graph6_lines(_read_text(args.g6_file)))
    if args.random_trees:
        n_lo, n_hi, count, seed = args.random_trees
        if not 1 <= n_lo <= n_hi <= MAX_VERTICES or count < 1:
            raise GraphError(
                f"--random-trees needs 1 <= NMIN <= NMAX <= {MAX_VERTICES} and COUNT >= 1, "
                f"got NMIN={n_lo} NMAX={n_hi} COUNT={count}"
            )
        parts.append(random_tree(n, seed + 1000 * n + i)
                     for n in range(n_lo, n_hi + 1) for i in range(count))
    if args.t_values is not None:
        parts.append([cycle(4 * t + 2) for t in _t_values(args.t_values)])
    if not parts:
        raise GraphError("no corpus selected (use --all-n/--all-upto/--g6-file/"
                         "--random-trees/--t-values)")
    return chain.from_iterable(parts)


def _check_grid(flag: str, max_g: int, max_h: int, theorems: list[str]) -> None:
    """Reject a grid whose largest product is past the harness's product cap
    or the solver cap, before its first row; the error names the cap."""
    cap, gives = solvers.solver_cap(), f"{flag} {max_g} {max_h} gives "
    for tid in theorems:
        n = order(harness.CHECKS[tid].product, max_g, max_h)
        harness.check_product_cap(tid, n, gives)
        if n > cap:
            raise solvers.SolverCapError(f"{gives}{tid} products of {n} vertices, "
                                         f"but exact solvers cap at {cap}")


def _t_values(text: str) -> list[int]:
    """Every t of ``--t-values``, each checked now against T15's range: the
    cycle C(4t+2) must fit the solver cap."""
    cap = solvers.solver_cap()
    max_t = (cap - 2) // 4
    if max_t < 1:
        raise GraphError(f"--t-values: T15's cycle C(4t+2) needs at least 6 vertices, "
                         f"but exact solvers cap at {cap}")
    values = []
    for token in text.split(","):
        try:
            t = int(token)
        except ValueError:
            t = None
        if t is None or not 1 <= t <= max_t:
            raise GraphError(f"--t-values needs comma-separated integers "
                             f"1 <= t <= {max_t}, got {token!r}")
        values.append(t)
    return values


# the corpus flags each instance kind reads
CORPUS_FLAGS = {
    "single": ("all_n", "all_upto", "g6_file", "random_trees", "t_values", "filter"),
    "pair": ("pair_grid", "lex_grid"),
}


def cmd_verify(args) -> int:
    theorems = [t.strip() for t in args.theorem.split(",") if t.strip()]
    kind = harness.theorem_kind(theorems)

    # every corpus is checked here, before the first row is written
    for flag in chain.from_iterable(CORPUS_FLAGS.values()):
        if getattr(args, flag) is not None and flag not in CORPUS_FLAGS[kind]:
            raise GraphError(f"--{flag.replace('_', '-')} does not apply to {','.join(theorems)}")
    if kind == "single":
        instances = _single_corpus(args)
        for name in args.filter or []:
            instances = filter(harness.CORPUS_FILTERS[name], instances)
    else:
        grids = [(flag, size) for flag, size in (("--pair-grid", args.pair_grid),
                                                 ("--lex-grid", args.lex_grid)) if size]
        if len(grids) != 1:
            raise GraphError("pair theorems need exactly one of --pair-grid and --lex-grid")
        flag, size = grids[0]
        _check_grid(flag, *size, theorems)
        instances = (harness.pair_grid if flag == "--pair-grid" else harness.lex_grid)(*size)

    out = _open_out(args.out) if args.out else sys.stdout

    def written(per_instance):
        # one write per instance, each as soon as its rows are checked
        for rows in per_instance:
            out.write("".join([row.to_json() + "\n" for row in rows]))
            yield from rows

    try:
        counts = harness.summarize(written(harness.instance_rows(theorems, instances)))
    finally:
        if args.out:
            out.close()
    if args.summary:
        print(harness.render_summary(counts), file=sys.stderr)
    return 1 if any(per.get(harness.VIOLATED) for per in counts.values()) else 0


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
    for family, (_, flags) in FAMILIES.items():
        p = gen_sub.add_parser(family)
        for flag in flags:
            p.add_argument(f"--{flag}", type=float if flag == "p" else int, required=True)
        if "seed" in flags:
            p.add_argument("--count", type=int, default=1)
        p.set_defaults(func=cmd_gen)

    inv = sub.add_parser("invariant", help="compute invariants of input graphs")
    inv.add_argument("--what", choices=sorted(solvers.INVARIANTS) + ["all"], default="all")
    inv.add_argument("--certify", action="store_true")
    inv.add_argument("--input", default="-")
    inv.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    inv.set_defaults(func=cmd_invariant)

    tr = sub.add_parser("transform", help="apply a transform or predicate")
    tr.add_argument("--op", required=True, choices=[*TRANSFORMS, *PREDICATES])
    tr.add_argument("--input", default="-")
    tr.add_argument("--format", choices=["g6", "edgelist"], default="g6")
    tr.set_defaults(func=cmd_transform)

    pr = sub.add_parser("product", help="product of two graph6 graphs")
    pr.add_argument("--op", required=True, choices=list(PRODUCTS))
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
    ver.add_argument("--t-values", default=None,
                     help="the cycles C(4t+2) for comma-separated t, T15's corpus")
    ver.add_argument("--filter", action="append",
                     choices=sorted(harness.CORPUS_FILTERS))
    ver.add_argument("--out", default=None, help="write JSONL rows to a file")
    ver.add_argument("--summary", action="store_true",
                     help="print a per-theorem verdict table to stderr")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command.  Input it cannot take ends in one stderr line and
    status 2, as argparse's own errors do; a violated row in status 1."""
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except INPUT_ERRORS as exc:
        print(f"openpack {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (``| head -1``): end quietly, with
        # stdout on devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


if __name__ == "__main__":
    raise SystemExit(main())
