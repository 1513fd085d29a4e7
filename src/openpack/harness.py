"""Claim-by-claim verification over graph corpora, one JSON line per row.

``TheoremCheckResult.to_json`` writes a row through ``formats.json_row``: one
f-string for a row without a witness whose names JSON writes unchanged,
``formats.JSON_LINE`` for any other, with the same bytes either way.

Each check (T1..T15) is registered in ``CHECKS`` by ``@_theorem``, beside
its definition, with the relation its rows assert and a pair check's product.
It turns one instance into one or more ``TheoremCheckResult`` rows, and a row
records one elementary relation, judged by ``_verdict``:

* bound checks (T1-T5, T8, T9, T14) claim ``lhs <= rhs``; verdict ``holds``
  when strict, ``equality`` when tight, ``violated`` otherwise;
* exact-value checks (T6, T7, T10-T12, T15) claim ``lhs == rhs``; verdict
  ``equality`` on success, on every tree for T10, proved with no search;
* biconditional checks (T13) compare two 0/1 sides and report ``holds``;
* instances failing a check's hypothesis become ``skipped`` rows, and checks
  that only report (T11 off trees, the T9 exclusions) emit ``report_only``.

Every ``violated`` row carries a witness of machine-checkable certificates
and is re-verified before emission.

The pair checks (T4-T7) get their product and its p_o from one call,
``_product_p_o``, which solves it once per pair of factor isomorphism classes
in the run; every other pair's value is certified on its own labelled product.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache, partial
from itertools import chain

from . import solvers
from .constructions import tree_opp
from .formats import json_row, parse_graph6
from .graph import (
    Graph,
    GraphError,
    _Record,
    check_enumerable,
    complement,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_tree,
)
from .products import PRODUCTS, isolated_vertex_count
from .solvers import GraphFacts, Run, VertexLabeling, VertexSet
from .transforms import _edges_on_triangles, has_even_cycle

HARNESS_MAX_PRODUCT_N = 24
# Entries in one run's factor memo, the lru_cache of pair factors' GraphFacts
# by graph: a grid's inner list of up to 33,867 graphs (max_h <= 6, as
# --pair-grid 4 6 on T4 and T5 takes) stays once loaded, at about 48 MB; one of
# 7-vertex graphs (T7 on --pair-grid 3 7) misses on every inner lookup.
FACTOR_FACTS_MAX = 65536

HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"
REPORT_ONLY = "report_only"
SKIPPED = "skipped"


class TheoremCheckResult(_Record):
    """One row of ``verify``'s output."""

    __slots__ = _fields = ("theorem", "instance", "verdict", "lhs", "rhs", "witness")

    def __init__(self, theorem: str, instance: str | list[str], verdict: str,
                 lhs: int | None, rhs: int | None, witness: dict | None = None):
        self.theorem = theorem
        self.instance = instance
        self.verdict = verdict
        self.lhs = lhs
        self.rhs = rhs
        self.witness = witness

    def to_json(self) -> str:
        return json_row(self.theorem, self.instance, self.verdict, self.lhs, self.rhs,
                        self.witness)


# ---------------------------------------------------------------------------
# Witness certificates


def _recorded(obj: dict, g: None) -> None:
    if type(obj.get("name")) is not str or type(obj.get("value")) is not int:
        raise ValueError("name must be a string and value an int")


# Every certificate kind a witness may hold: the invariant whose predicate in
# solvers.PREDICATES it passes (a value only records a number), its JSON fields
# besides "kind", and their reader on its graph, raising ValueError on a misfit.
CERT_KINDS = {
    "opp_labeling": ("p_o", ("graph6", "labels", "k"), VertexLabeling.from_json_obj),
    "packing_labeling": ("chi2", ("graph6", "labels", "k"), VertexLabeling.from_json_obj),
    "open_packing_set": ("rho_o", ("graph6", "vertices"), VertexSet.from_json_obj),
    "packing_set": ("rho", ("graph6", "vertices"), VertexSet.from_json_obj),
    "dominating_set": ("gamma", ("graph6", "vertices"), VertexSet.from_json_obj),
    "total_dominating_set": ("gamma_t", ("graph6", "vertices"), VertexSet.from_json_obj),
    "common_neighbor_clique": ("omega_N", ("graph6", "vertices"), VertexSet.from_json_obj),
    "value": (None, ("name", "value"), _recorded),
}
# the kind each cited fact is written as; the hub clique is a clique of N(G)
_KIND_OF = {invariant: kind for kind, (invariant, _, _) in CERT_KINDS.items()}
_KIND_OF["hub_clique"] = "common_neighbor_clique"


def _value_cert(name: str, value: int) -> dict:
    return {"kind": _KIND_OF[None], "name": name, "value": value}


def _witness(parts: tuple) -> dict:
    """The witness of a violated row: its certificates in the order given, each
    part a value certificate (``_value_cert``) or a ``(facts, name)`` pair that
    cites a fact of ``GraphFacts``, with or without the value the row read,
    which the fact's value must equal, or CertificateError is raised."""
    certificates = []
    for part in parts:
        if isinstance(part, dict):
            certificates.append(part)
            continue
        facts, name, *read = part
        value, cert = getattr(facts, name)
        if read and read[0] != value:
            raise solvers.CertificateError(
                f"{name} of {facts.g6} is {value}, but its row read {read[0]}")
        certificates.append({"kind": _KIND_OF[name], "graph6": facts.g6, **cert.to_json_obj()})
    return {"certificates": certificates}


def reverify_violation(row: TheoremCheckResult) -> None:
    """Check a violated row is self-consistent before it is emitted: its
    relation fails on lhs and rhs, and its witness is a non-empty list of
    certificates of kinds in ``CERT_KINDS`` that fit and verify on the graph
    each names.  Raises ValueError on anything else."""
    if row.verdict != VIOLATED:
        raise ValueError("only violated rows carry a reverifiable witness")
    if type(row.theorem) is not str or row.theorem not in CHECKS:
        raise ValueError(f"unknown theorem id {row.theorem!r}")
    if _verdict(CHECKS[row.theorem].relation, row.lhs, row.rhs) != VIOLATED:
        raise ValueError("violated row whose relation holds")
    certificates = row.witness.get("certificates") if type(row.witness) is dict else None
    if type(certificates) is not list or not certificates:
        raise ValueError("violated row without a non-empty list of certificates")
    for cert in certificates:
        kind = cert.get("kind") if type(cert) is dict else None
        if type(kind) is not str or kind not in CERT_KINDS:
            raise ValueError(f"unknown certificate kind {kind!r}")
        invariant, fields, read = CERT_KINDS[kind]
        g = parse_graph6(cert.get("graph6")) if "graph6" in fields else None
        try:
            claim = read(cert, g)
        except ValueError as exc:
            where = f"its {g.n}-vertex graph" if g else "its kind"
            raise ValueError(f"certificate of kind {kind!r} does not fit {where}: {exc}") from None
        if invariant and not solvers.PREDICATES[invariant](g, claim):
            raise ValueError(f"certificate of kind {kind!r} failed verification")


# ---------------------------------------------------------------------------
# The registry and the verdict rule


# every check by its theorem id, each registered by @_theorem beside it
CHECKS: dict[str, Callable[..., list[TheoremCheckResult]]] = {}


def _theorem(tid: str, relation: str, product: str | None = None):
    """Register the decorated function as the check of theorem ``tid``.

    ``relation`` is what its rows assert between lhs and rhs (``le``, ``eq``
    or ``iff``), and a pair theorem's ``product`` its name in
    ``products.PRODUCTS``.  The ``kind`` of instance it takes follows: two
    factors' facts (``pair``) with a product, one graph's (``single``) without.
    They are kept as attributes of the function, so a wrapper made with
    ``functools.wraps`` carries them too.  Every check takes only its instance.
    """

    def register(check):
        check.kind = "pair" if product else "single"
        check.relation, check.product = relation, product
        CHECKS[tid] = check
        return check

    return register


def _verdict(relation: str, lhs: int, rhs: int) -> str:
    """``le`` holds when strict and is an equality when tight; ``eq`` is an
    equality; ``iff``, between two 0/1 flags, holds.  Otherwise violated."""
    if lhs == rhs:
        return HOLDS if relation == "iff" else EQUALITY
    return HOLDS if relation == "le" and lhs < rhs else VIOLATED


def _row(tid, instance, lhs, rhs, witness_parts: tuple) -> TheoremCheckResult:
    """Row of theorem ``tid`` on lhs and rhs; a violated one carries the
    witness built from ``witness_parts``."""
    verdict = _verdict(CHECKS[tid].relation, lhs, rhs)
    witness = _witness(witness_parts) if verdict == VIOLATED else None
    return TheoremCheckResult(tid, instance, verdict, lhs, rhs, witness)


def _skipped(theorem, instance) -> TheoremCheckResult:
    return TheoremCheckResult(theorem, instance, SKIPPED, None, None)


# ---------------------------------------------------------------------------
# Single-graph checks


@_theorem("T1", "le")
def check_T1(facts: GraphFacts) -> list[TheoremCheckResult]:
    """n <= p_o * rho_o and p_o <= n - rho_o + 1."""
    po, rho_o = facts.p_o[0], facts.rho_o[0]
    witness = ((facts, "p_o"), (facts, "rho_o"))
    return [
        _row("T1", facts.g6, facts.g.n, po * rho_o, witness),
        _row("T1", facts.g6, po, facts.g.n - rho_o + 1, witness),
    ]


@_theorem("T2", "le")
def check_T2(facts: GraphFacts) -> list[TheoremCheckResult]:
    """chi2 <= 2 * p_o and p_o <= chi2."""
    po, chi2 = facts.p_o[0], facts.chi2[0]
    witness = ((facts, "p_o"), (facts, "chi2"))
    return [
        _row("T2", facts.g6, chi2, 2 * po, witness),
        _row("T2", facts.g6, po, chi2, witness),
    ]


@_theorem("T3", "le")
def check_T3(facts: GraphFacts) -> list[TheoremCheckResult]:
    """max degree <= p_o; the hub clique (``GraphFacts.hub_clique``) proves the
    left side, and is built only for a violated row."""
    witness = ((facts, "p_o"), (facts, "hub_clique"))
    return [_row("T3", facts.g6, facts.maxdeg, facts.p_o[0], witness)]


def has_matching_partition_structure(g: Graph, labeling: VertexLabeling, part_size: int) -> bool:
    """Does the labeling exhibit the extremal matching structure?

    Every class must have exactly ``part_size`` (even, >= 2) vertices and
    every vertex exactly one neighbor in every class, its own included; the
    classes are then parts with internal perfect matchings and pairwise
    perfect cross matchings.
    """
    if part_size < 2 or part_size % 2:
        return False
    masks = labeling.classes()
    if any(mask.bit_count() != part_size for mask in masks):
        return False
    for v in range(g.n):
        for mask in masks:
            if (g.adj[v] & mask).bit_count() != 1:
                return False
    return True


@_theorem("T8", "le")
def check_T8(facts: GraphFacts) -> list[TheoremCheckResult]:
    """Degree-density lower bound, in integer-exact squared form:
    2m - n <= p_o (p_o - 1) rho_o, with equality exactly on the matching family."""
    if not facts.connected or facts.g.n < 2:
        return [_skipped("T8", facts.g6)]
    (po, po_lab), rho_o = facts.p_o, facts.rho_o[0]
    lhs = 2 * facts.g.m - facts.g.n
    rhs = po * (po - 1) * rho_o
    parts = ((facts, "p_o"), (facts, "rho_o"))
    row = _row("T8", facts.g6, lhs, rhs, parts)
    if row.verdict != EQUALITY or has_matching_partition_structure(facts.g, po_lab, rho_o):
        return [row]
    # equality is supposed to force the matching structure; the flag row
    # compares the required flag (1) against the observed one (0)
    flag = (*parts, _value_cert("matching_partition_structure", 0))
    return [row, _row("T8", facts.g6, 1, 0, flag)]


@_theorem("T9", "le")
def check_T9(facts: GraphFacts) -> list[TheoremCheckResult]:
    """p_o(G) + p_o(co-G) >= n, except the two 4-vertex graphs where the sum
    is n - 1 (reported, not asserted)."""
    co = GraphFacts(complement(facts.g), facts.run)
    total = facts.p_o[0] + co.p_o[0]
    # C4 and 2K2 are the only 2- and 1-regular 4-vertex graphs: 2d edges, max degree d
    if facts.g.n == 4 and facts.maxdeg in (1, 2) and facts.g.m == 2 * facts.maxdeg:
        # the two excluded graphs sit exactly one below the bound
        return [TheoremCheckResult("T9", facts.g6, REPORT_ONLY, facts.g.n - 1, total)]
    witness = ((facts, "p_o"), (co, "p_o"))
    return [_row("T9", facts.g6, facts.g.n, total, witness)]


@_theorem("T10", "eq")
def check_T10(facts: GraphFacts) -> list[TheoremCheckResult]:
    """Trees: p_o = max degree, proved with no search: the constructed
    partition is an OPP on Delta classes (p_o <= Delta), and the hub clique
    a clique of N(T) of size Delta (Delta <= p_o)."""
    if facts.g.n < 2 or not is_tree(facts.g):
        return [_skipped("T10", facts.g6)]
    # a certificate that fails is not a theorem violation: its builder is
    # broken, and CertificateError says so
    k, _ = solvers._certified(facts.g, solvers.is_opp, facts.maxdeg, tree_opp(facts.g).labels)
    delta, _ = facts.hub_clique
    # both sides are Delta, so the row is an equality and needs no witness
    return [_row("T10", facts.g6, k, delta, ())]


@_theorem("T11", "eq")
def check_T11(facts: GraphFacts) -> list[TheoremCheckResult]:
    """Even-cycle-free graphs: chi(N(g)) = omega(N(g)), asserted for trees and
    report-only otherwise, since the claim fails on C5 and C7."""
    if has_even_cycle(facts.g):
        return [_skipped("T11", facts.g6)]
    chi_n, omega_n = facts.p_o[0], facts.omega_N[0]
    if is_tree(facts.g):
        witness = ((facts, "p_o"), (facts, "omega_N"))
        return [_row("T11", facts.g6, chi_n, omega_n, witness)]
    return [TheoremCheckResult("T11", facts.g6, REPORT_ONLY, chi_n, omega_n)]


@_theorem("T12", "eq")
def check_T12(facts: GraphFacts) -> list[TheoremCheckResult]:
    """Bipartite complement forces chi(N(g)) = omega(N(g))."""
    if not is_bipartite(complement(facts.g)):
        return [_skipped("T12", facts.g6)]
    witness = ((facts, "p_o"), (facts, "omega_N"))
    return [_row("T12", facts.g6, facts.p_o[0], facts.omega_N[0], witness)]


@_theorem("T13", "iff")
def check_T13(facts: GraphFacts) -> list[TheoremCheckResult]:
    """For n >= 3: rho_o = 1 iff (diameter <= 2 and every edge on a triangle),
    and the same condition is equivalent to p_o = n."""
    if facts.g.n < 3:
        return [_skipped("T13", facts.g6)]
    condition = int(facts.diameter_le_2 and _edges_on_triangles(facts.g.adj, facts.two_step.adj))
    return [_row("T13", facts.g6, lhs, condition, ((facts, name),))
            for lhs, name in ((int(facts.rho_o[0] == 1), "rho_o"),
                              (int(facts.p_o[0] == facts.g.n), "p_o"))]


@_theorem("T14", "le")
def check_T14(facts: GraphFacts) -> list[TheoremCheckResult]:
    """rho <= gamma always; rho_o <= gamma_t when there is no isolated vertex."""
    closed_witness = ((facts, "rho"), (facts, "gamma"))
    rows = [_row("T14", facts.g6, facts.rho[0], facts.gamma[0], closed_witness)]
    try:
        gamma_t = facts.gamma_t[0]
    except solvers.UndefinedInvariantError:
        return rows + [_skipped("T14", facts.g6)]
    open_witness = ((facts, "rho_o"), (facts, "gamma_t"))
    rows.append(_row("T14", facts.g6, facts.rho_o[0], gamma_t, open_witness))
    return rows


@_theorem("T15", "eq")
def check_T15(facts: GraphFacts) -> list[TheoremCheckResult]:
    """two_step(cycle(4t+2)) is two disjoint copies of cycle(2t+1).

    Three rows on ``cycle(n)`` itself, n = 4t+2 >= 6, and a skip on any other
    graph: the isomorphism flag against 1, then chi and omega of the two-step
    graph against the same invariants of the two odd cycles (chi is always 3;
    omega is 3 for t = 1, where the cycles are triangles, and 2 for t >= 2).
    The flag records whether the map 2j -> j, 2j+1 -> 2t+1+j, which fits the
    cycle's labelling only, is an isomorphism onto the two cycles: two-step
    neighbours in C(4t+2) are two apart, so the even vertices form one cycle
    of 2t+1 and the odd vertices the other.
    """
    n = facts.g.n
    if n < 6 or n % 4 != 2 or facts.g != cycle(n):
        return [_skipped("T15", facts.g6)]
    t = (n - 2) // 4
    target = disjoint_union(cycle(2 * t + 1), cycle(2 * t + 1))
    image = [v // 2 + (v % 2) * (2 * t + 1) for v in range(n)]
    relabeled = ((image[u], image[v]) for u, v in facts.two_step.edges())
    iso = from_edge_list(n, relabeled) == target
    # p_o is the chromatic number of the two-step graph, and its labeling
    # properly colors the two-step graph
    chi_n, omega_n = facts.p_o[0], facts.omega_N[0]
    chi_target = solvers.chromatic_number(target)[0]
    omega_target = solvers.max_independent_set(complement(target))[0]
    witness = ((facts, "p_o"), (facts, "omega_N"),
               _value_cert("isomorphic_to_two_odd_cycles", int(iso)))
    return [
        _row("T15", facts.g6, int(iso), 1, witness),
        _row("T15", facts.g6, chi_n, chi_target, witness),
        _row("T15", facts.g6, omega_n, omega_target, witness),
    ]


# ---------------------------------------------------------------------------
# Pair checks


def check_product_cap(tid: str, n: int, prefix: str = "") -> None:
    """Refuse theorem ``tid``'s product of ``n`` vertices past the harness cap,
    ``prefix`` leading the message: on each product built, and on a grid's largest."""
    if n > HARNESS_MAX_PRODUCT_N:
        raise GraphError(f"{prefix}{tid} products of {n} vertices, "
                         f"but harness products cap at {HARNESS_MAX_PRODUCT_N}")


def _product_p_o(tid: str, fg: GraphFacts, fh: GraphFacts) -> tuple[GraphFacts, int]:
    """The facts of the product theorem ``tid`` is about, built in fg's run
    once ``check_product_cap`` passes it, and its p_o, solved once per pair of factor
    classes.  The run's class table maps (product name, canonical keys of G
    and H) to p_o and a labelling attaining it on the product of the canonical
    forms, carried by the layout's ``vertex_map``: a miss stores its solve's
    labelling; a hit's is certified on this product (CertificateError)."""
    op = CHECKS[tid].product
    prod, layout = PRODUCTS[op](fg.g, fh.g)
    check_product_cap(tid, prod.n)
    fp = GraphFacts(prod, fg.run)
    classes = fg.run.classes
    key = (op, fg.canonical[0], fh.canonical[0])
    where = layout.vertex_map(fg.canonical[1], fh.canonical[1])
    hit = classes.get(key)
    if hit is not None:
        k, labels = hit
        solvers._certified(prod, solvers.is_opp, k, [labels[x] for x in where])
        return fp, k
    k, labeling = fp.p_o
    labels = [0] * prod.n
    for x, label in zip(where, labeling.labels):
        labels[x] = label
    classes[key] = (k, tuple(labels))
    return fp, k


@_theorem("T4", "le", product="cart")
def check_T4(fg: GraphFacts, fh: GraphFacts) -> list[TheoremCheckResult]:
    """Cartesian product: max factor p_o <= p_o(prod) <= min mixed products."""
    fp, po_p = _product_p_o("T4", fg, fh)
    instance = [fg.g6, fh.g6]
    po_g, po_h = fg.p_o[0], fh.p_o[0]
    witness = ((fp, "p_o", po_p), (fg, "p_o"), (fh, "p_o"))
    upper = min(po_g * fh.chi2[0], fg.chi2[0] * po_h)
    return [
        _row("T4", instance, max(po_g, po_h), po_p, witness),
        _row("T4", instance, po_p, upper, witness),
    ]


@_theorem("T5", "le", product="direct")
def check_T5(fg: GraphFacts, fh: GraphFacts) -> list[TheoremCheckResult]:
    """Direct product of graphs with edges: max factor p_o <= p_o(prod) <= product."""
    instance = [fg.g6, fh.g6]
    if fg.g.m == 0 or fh.g.m == 0:
        return [_skipped("T5", instance)]
    fp, po_p = _product_p_o("T5", fg, fh)
    po_g, po_h = fg.p_o[0], fh.p_o[0]
    witness = ((fp, "p_o", po_p), (fg, "p_o"), (fh, "p_o"))
    return [
        _row("T5", instance, max(po_g, po_h), po_p, witness),
        _row("T5", instance, po_p, po_g * po_h, witness),
    ]


@_theorem("T6", "eq", product="lex")
def check_T6(fg: GraphFacts, fh: GraphFacts) -> list[TheoremCheckResult]:
    """Lexicographic product formula:
    p_o(G o H) = chi2(G)|V(H)| - i_H (chi2(G) - p_o(G)) for connected G, n >= 2."""
    instance = [fg.g6, fh.g6]
    if fg.g.n < 2 or not fg.connected:
        return [_skipped("T6", instance)]
    fp, po_p = _product_p_o("T6", fg, fh)
    i_h = isolated_vertex_count(fh.g)
    chi2_g = fg.chi2[0]
    predicted = chi2_g * fh.g.n - i_h * (chi2_g - fg.p_o[0])
    witness = ((fp, "p_o", po_p), (fg, "chi2"), (fg, "p_o"),
               _value_cert("isolated_vertices_of_second_factor", i_h))
    return [_row("T6", instance, po_p, predicted, witness)]


@_theorem("T7", "eq", product="corona")
def check_T7(fg: GraphFacts, fh: GraphFacts) -> list[TheoremCheckResult]:
    """Corona formula: p_o(G . H) = max(p_o(G), |V(H)| + max degree of G)."""
    fp, po_p = _product_p_o("T7", fg, fh)
    instance = [fg.g6, fh.g6]
    predicted = max(fg.p_o[0], fh.g.n + fg.maxdeg)
    witness = ((fp, "p_o", po_p), (fg, "p_o"),
               _value_cert("second_factor_order_plus_max_degree", fh.g.n + fg.maxdeg))
    return [_row("T7", instance, po_p, predicted, witness)]


def theorem_kind(theorems: Iterable[str]) -> str:
    """The one instance kind of every check in ``theorems``: a run takes one
    kind of instance, and each theorem once."""
    theorems = list(theorems)
    for tid in theorems:
        if tid not in CHECKS:
            raise GraphError(f"unknown theorem id {tid!r}")
        if theorems.count(tid) > 1:
            raise GraphError(f"theorem id {tid!r} given twice")
    kinds = {CHECKS[tid].kind for tid in theorems}
    if len(kinds) != 1:
        none = "" if kinds else "no theorem selected: "
        raise GraphError(f"{none}a run needs theorems of one kind: single-graph or pair")
    return kinds.pop()


# ---------------------------------------------------------------------------
# Corpus runner

Instance = Graph | tuple[Graph, Graph]
# how run_corpus names a refused instance of each kind
INSTANCE_NAMES = {"single": "graph {number}", "pair": "pair {number}"}


def evaluate_instance(theorems: tuple[str, ...], instance: Instance, run: Run,
                      factors: Callable[[Graph], GraphFacts]) -> list[TheoremCheckResult]:
    """Rows of the selected checks on one instance, in ``run``: pair factors
    come from the run's ``factors`` memo and their products' p_o from its class
    table (``_product_p_o``), everything else is solved afresh."""
    if isinstance(instance, Graph):
        args = (GraphFacts(instance, run),)
    else:
        args = (factors(instance[0]), factors(instance[1]))
    return [row for tid in theorems for row in CHECKS[tid](*args)]


def instance_rows(theorems: Iterable[str],
                  instances: Iterable[Instance]) -> Iterator[list[TheoremCheckResult]]:
    """Run the selected checks over a corpus, yielding each instance's rows
    as one list, in corpus order.

    Violated rows are re-verified before they are yielded.  The call makes
    one ``solvers.Run`` and builds every facts object in it, so its instances
    share one kernel memo (at most ``MEMO_MAX`` entries) and one class table
    (one product solve per product and pair of factor classes, every other
    pair's labelling certified on its own product).  Facts about pair factors
    are shared through one factor memo (at most ``FACTOR_FACTS_MAX``
    factors), local to the call.  Calls open at once share nothing.

    An instance refused by the solver cap, the product cap or any other
    GraphError is named as ``graph N: ...`` or ``pair N: ...``, N its place
    among the instances from 1, as ``invariant`` names an input graph; the
    error keeps its class.
    """
    theorems = tuple(theorems)
    name = INSTANCE_NAMES[theorem_kind(theorems)]
    run = Run()
    factors = lru_cache(maxsize=FACTOR_FACTS_MAX)(partial(GraphFacts, run=run))
    for number, instance in enumerate(instances, start=1):
        try:
            rows = evaluate_instance(theorems, instance, run, factors)
        except (solvers.SolverCapError, GraphError) as exc:
            raise type(exc)(f"{name.format(number=number)}: {exc}") from None
        for row in rows:
            if row.verdict == VIOLATED:
                reverify_violation(row)
        yield rows


def run_corpus(theorems: Iterable[str],
               instances: Iterable[Instance]) -> Iterator[TheoremCheckResult]:
    """The rows of ``instance_rows``, one at a time."""
    for rows in instance_rows(theorems, instances):
        yield from rows


def summarize(rows: Iterable[TheoremCheckResult]) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for row in rows:
        per = counts.setdefault(row.theorem, {})
        per[row.verdict] = per.get(row.verdict, 0) + 1
    return counts


def render_summary(counts: dict[str, dict[str, int]]) -> str:
    verdicts = (HOLDS, EQUALITY, VIOLATED, REPORT_ONLY, SKIPPED)
    table = [["theorem", *verdicts, "total"]]
    for tid in sorted(counts, key=lambda t: int(t[1:])):
        per = counts[tid]
        table.append([tid, *(str(per.get(v, 0)) for v in verdicts), str(sum(per.values()))])
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in table)


# ---------------------------------------------------------------------------
# Corpus builders


# Each builder checks its sizes when it is called, before the first instance
# is asked for, so a run refused for its corpus writes no row.


def all_graphs_upto(n: int) -> Iterator[Graph]:
    """Every labeled graph on 1..n vertices, by order, then as enumerated."""
    check_enumerable("n", n)
    return chain.from_iterable(map(enumerate_all_graphs, range(1, n + 1)))


def pair_grid(max_g: int, max_h: int) -> Iterator[tuple[Graph, Graph]]:
    """All ordered pairs (G, H) with |G| <= max_g and |H| <= max_h."""
    check_enumerable("max_g", max_g)
    check_enumerable("max_h", max_h)
    hs = list(all_graphs_upto(max_h))
    return ((g, h) for g in all_graphs_upto(max_g) for h in hs)


def lex_grid(max_g: int, max_h: int) -> Iterator[tuple[Graph, Graph]]:
    """Connected G with 2 <= |G| <= max_g crossed with every H with |H| <= max_h."""
    check_enumerable("max_g", max_g, least=2)
    check_enumerable("max_h", max_h)
    hs = list(all_graphs_upto(max_h))
    return ((g, h) for g in all_graphs_upto(max_g)
            if g.n >= 2 and is_connected(g) for h in hs)


CORPUS_FILTERS = {
    "connected": is_connected,
    "tree": is_tree,
    "even-cycle-free": lambda g: not has_even_cycle(g),
    "bipartite-complement": lambda g: is_bipartite(complement(g)),
}
