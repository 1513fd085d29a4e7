"""Exact solvers for every supported invariant, each with a certificate.

Three exact searches do the NP-hard work.  Two kernels (exact chromatic
number and maximum independent set) are applied to the neighborhood
transforms, which one ``GraphFacts`` per graph builds once and shares:

* ``p_o``     = chromatic number of ``two_step(g)``
* ``chi2``    = chromatic number of ``square(g)``
* ``rho_o``   = independence number of ``two_step(g)``
* ``rho``     = independence number of ``square(g)``
* ``omega_N`` = independence number of the complement of ``two_step(g)``

The third, ``_min_cover``, lives here: a minimum cover of the vertices by
neighborhoods, closed for ``gamma`` and open for ``gamma_t``.

The public solver functions return the same pairs from a fresh
``GraphFacts``.  No solver returns a bare number: ``_certified`` checks each
search result once, by explicit code that raises ``CertificateError``, against
the invariant's predicate in ``PREDICATES``, which defines it on the input
graph and raises ``ValueError`` unless the certificate fits the graph.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from functools import reduce
from operator import and_

from . import _kernels_py as _kernel
from .formats import to_graph6
from .graph import (
    Graph,
    _canonical_form,
    _ReadOnly,
    _Record,
    _trusted,
    complement,
    is_connected,
    iter_bits,
    max_degree,
    min_degree,
)
from .transforms import _square_rows, two_step

HARD_MAX_N = 64


class SolverCapError(ValueError):
    """Instance exceeds the exact-solver size cap."""


class CertificateError(RuntimeError):
    """A kernel's certificate fails its defining predicate.  Raised by explicit
    checks, so ``python -O`` cannot strip them."""


class UndefinedInvariantError(ValueError):
    """The invariant does not exist for this graph (e.g. total domination
    with isolated vertices)."""


def kernel_backend() -> str:
    """Name of the kernel implementation; always "python"."""
    return _kernel.BACKEND


def solver_cap() -> int:
    """Current per-call vertex cap; OPENPACK_MAX_N may lower it, never raise it."""
    cap = HARD_MAX_N
    raw = os.environ.get("OPENPACK_MAX_N")
    if raw:
        try:
            requested = int(raw)
        except ValueError as exc:
            raise SolverCapError(f"OPENPACK_MAX_N must be an integer, got {raw!r}") from exc
        if requested < 1:
            raise SolverCapError(f"OPENPACK_MAX_N must be a positive integer, got {raw!r}")
        if requested < cap:
            cap = requested
    return cap


# ---------------------------------------------------------------------------
# Certificate types


class VertexSet(_ReadOnly):
    """A vertex subset of a host graph, as a bit mask; a read-only value."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:  # a negative mask has no finite set of members
            raise ValueError(f"a vertex set mask must be non-negative, got {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> list[int]:
        return list(iter_bits(self.bits))

    def to_json_obj(self) -> dict:
        return {"vertices": self.members()}

    @staticmethod
    def from_json_obj(obj: dict, g: Graph) -> "VertexSet":
        """The set ``to_json_obj`` wrote, of vertices of g; ValueError otherwise."""
        vertices = obj.get("vertices")
        if type(vertices) is not list or any(type(v) is not int or not 0 <= v < g.n for v in vertices):
            raise ValueError(f"vertices must be a list of ints in 0..{g.n - 1}")
        return VertexSet.of(vertices)

    @staticmethod
    def of(vertices) -> "VertexSet":
        vertices = set(vertices)
        if vertices and min(vertices) < 0:
            raise ValueError(f"vertices must be non-negative, got {min(vertices)}")
        return VertexSet(sum(1 << v for v in vertices))


class VertexLabeling(_ReadOnly):
    """A surjective labeling V -> {1..k}; the classes form a vertex partition.
    A read-only value."""

    __slots__ = _fields = ("labels", "k")

    def __init__(self, labels: tuple[int, ...], k: int):
        # k is checked against the labels first, so a huge k builds no range
        if not 1 <= k <= len(labels) or set(labels) != set(range(1, k + 1)):
            raise ValueError(f"{len(labels)} labels must use every value in 1..{k}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "k": self.k}

    @staticmethod
    def from_json_obj(obj: dict, g: Graph) -> "VertexLabeling":
        """The labeling ``to_json_obj`` wrote, of every vertex of g; ValueError otherwise."""
        labels, k = obj.get("labels"), obj.get("k")
        if type(labels) is not list or len(labels) != g.n or any(
                type(x) is not int for x in [k, *labels]):
            raise ValueError(f"labels must be {g.n} ints and k an int")
        return VertexLabeling(tuple(labels), k)

    def classes(self) -> list[int]:
        """Class bit masks, indexed by label - 1."""
        masks = [0] * self.k
        for v, lab in enumerate(self.labels):
            masks[lab - 1] |= 1 << v
        return masks


def _labels_of(g: Graph, labeling: VertexLabeling) -> tuple[int, ...]:
    if len(labeling.labels) != g.n:
        raise ValueError(f"labeling has {len(labeling.labels)} labels for {g.n} vertices")
    return labeling.labels


def _mask_of(g: Graph, s) -> int:
    mask = s.bits if isinstance(s, VertexSet) else int(s)
    if mask >> g.n:
        raise ValueError(f"set has a vertex outside 0..{g.n - 1}")
    return mask


# ---------------------------------------------------------------------------
# Kernels with certificates


def _certified(g: Graph, predicate, size: int, found) -> tuple[int, VertexSet | VertexLabeling]:
    """``(size, certificate)`` if ``found``, a search result on g, is a set of
    ``size`` vertices or labels onto 1..size that passes ``predicate``."""
    try:
        is_set = isinstance(found, int)
        cert = VertexSet(found) if is_set else VertexLabeling(tuple(found), size)
        ok = (not is_set or cert.size == size) and predicate(g, cert)
    except ValueError as exc:
        raise CertificateError(f"search result does not fit its graph: {exc}") from None
    if not ok:
        raise CertificateError(f"search result of size {size} fails {predicate.__name__}")
    return size, cert


def max_independent_set(g: Graph) -> tuple[int, VertexSet]:
    """Maximum independent set size and one witness set."""
    GraphFacts(g)._within_cap
    return _certified(g, _is_independent, *_kernel.max_independent_set(g.n, g.adj))


def _is_proper_coloring(g: Graph, labeling: VertexLabeling) -> bool:
    labels = _labels_of(g, labeling)
    return all(labels[u] != labels[v] for u, v in g.edges())


def _is_independent(g: Graph, s) -> bool:
    mask = _mask_of(g, s)
    return all(not g.adj[v] & mask for v in iter_bits(mask))


# ---------------------------------------------------------------------------
# Packing-side invariants


def is_open_packing(g: Graph, s) -> bool:
    """No two distinct members share a common neighbor.

    Equivalent linear form: no vertex of g has two neighbors in the set.
    """
    mask = _mask_of(g, s)
    return all((row & mask).bit_count() <= 1 for row in g.adj)


def is_packing(g: Graph, s) -> bool:
    """Closed neighborhoods of members are pairwise disjoint.

    Equivalent linear form: no closed neighborhood meets the set twice.
    """
    mask = _mask_of(g, s)
    return all(((row | 1 << v) & mask).bit_count() <= 1 for v, row in enumerate(g.adj))


def _no_label_twice(rows, labels: tuple[int, ...], k: int) -> bool:
    """Are the rows (neighborhood masks) of each class pairwise disjoint?
    They are exactly when the popcount of the class's union equals the sum
    of its rows' popcounts; a union never counts more, so one comparison
    over all classes decides every class at once."""
    union = [0] * (k + 1)
    for label, row in zip(labels, rows):
        union[label] |= row
    return sum(map(int.bit_count, union)) == sum(map(int.bit_count, rows))


def is_opp(g: Graph, labeling: VertexLabeling) -> bool:
    """Is the labeling an open packing partition?  A class is an open packing
    exactly when its members' open neighborhoods are pairwise disjoint."""
    return _no_label_twice(g.adj, _labels_of(g, labeling), labeling.k)


def is_packing_partition(g: Graph, labeling: VertexLabeling) -> bool:
    """Is every class a packing, i.e. is the labeling a 2-distance coloring?
    A class is a packing exactly when its members' closed neighborhoods are
    pairwise disjoint."""
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    return _no_label_twice(closed, _labels_of(g, labeling), labeling.k)


def is_common_neighbor_clique(g: Graph, s) -> bool:
    """Does every pair of members share a common neighbor (a clique of two_step(g))?
    A vertex adjacent to every member is a common neighbor of each pair, so
    the pairs are scanned only when the AND of the members' rows is empty."""
    rows = [g.adj[v] for v in iter_bits(_mask_of(g, s))]
    if reduce(and_, rows, -1):
        return True
    return all(a & b for i, a in enumerate(rows) for b in rows[i + 1:])


def split_open_packing(g: Graph, s) -> tuple[VertexSet, VertexSet]:
    """Split an open packing into two packings.

    The members induce a graph of maximum degree one, so the split keeps the
    isolated members plus the lower endpoint of every induced edge on one
    side and collects the other endpoints on the second (possibly empty) side.
    """
    bits = _mask_of(g, s)
    if not is_open_packing(g, bits):
        raise ValueError("input set is not an open packing")
    first = 0
    second = 0
    for v in iter_bits(bits):
        if second >> v & 1:
            continue
        partner = g.adj[v] & bits & ~(1 << v)
        if partner:
            second |= partner
        first |= 1 << v
    return VertexSet(first), VertexSet(second)


# ---------------------------------------------------------------------------
# Domination


def _min_cover(n: int, cover: list[int], reach) -> tuple[int, int]:
    """Minimum number of vertices whose cover masks union to V.

    ``cover[u]`` doubles as "what selecting u covers" and "who can cover u"
    (the two coincide for both closed and open neighborhoods).  Branches on a
    most-constrained uncovered vertex, and tries its options by how many
    uncovered vertices each covers, most first, ties by the lowest index, so
    a good cover is found early.  A subtree is pruned once a lower bound
    on the picks it still needs reaches ``room = best - size``; the bounds,
    cheapest first:

    * static: ceil(|uncovered| / largest cover);
    * packing: uncovered vertices with pairwise disjoint covers, taken greedily
      by ascending cover size, each need their own pick.  For closed covers
      they form a 2-packing (rho <= gamma), for open covers an open packing
      (rho_o <= gamma_t), the T14 bounds.  ``levels`` masks the vertices of
      each cover size, smallest first, and ``block[v]`` is v plus ``reach[v]``,
      every vertex whose cover meets v's: the caller's square rows, or its
      two-step rows for open covers.
      Each step takes the lowest vertex of the first level meeting ``free``
      and clears its block, so the scan ends within ``room`` steps; its first
      vertex is the branching one.

    ``best`` changes only on a strictly smaller cover, and a pruned subtree
    holds none, so the bounds change the running time, never the result.  Two
    more shortcuts skip work whose outcome is already known, with the same
    argument:

    * last pick: at ``room == 2`` only a single pick that covers all of
      ``uncovered`` can improve ``best``.  Such a u covers every uncovered
      vertex, so it lies in the intersection of their covers; it has the
      largest gain, so the search would take the lowest one first, then
      prune its later siblings; one scan of that intersection does the same;
    * transposition table: ``expanded`` maps each residual ``uncovered`` to the
      smallest size at which it was expanded in this call.  Every pick covers
      the branching vertex, so a residual recurs only after its first subtree
      is done; that subtree found every cover of the residual that beat
      ``best``, and ``best`` only shrinks, so the residual reached again at no
      smaller size holds no strictly smaller cover and is skipped.  This
      holds for any fixed child order.
    """
    universe = (1 << n) - 1

    chosen, count, uncovered = 0, 0, universe
    while uncovered:
        pick, gain = -1, -1
        for u in range(n):
            got = (cover[u] & uncovered).bit_count()
            if got > gain:
                pick, gain = u, got
        chosen |= 1 << pick
        count += 1
        uncovered &= ~cover[pick]
    best = [count, chosen]

    sizes = [c.bit_count() for c in cover]
    max_cover = max(sizes)
    if -(-n // max_cover) >= count:  # the greedy cover meets the static bound
        return count, chosen
    levels = _kernel._degree_levels(n, cover)[::-1]
    block = [row | 1 << v for v, row in enumerate(reach)]

    def extend(uncovered: int, size: int, mask: int) -> None:
        if not uncovered:
            if size < best[0]:
                best[0], best[1] = size, mask
            return
        room = best[0] - size
        left = uncovered.bit_count()
        if -(-left // max_cover) >= room:
            return
        if room == 2:
            common, m = universe, uncovered
            while m and common:
                low = m & -m
                m ^= low
                common &= cover[low.bit_length() - 1]
            if common:
                best[0], best[1] = size + 1, mask | (common & -common)
            return
        if expanded.get(uncovered, n) <= size:
            return
        expanded[uncovered] = size
        free, packed = uncovered, 0
        for level in levels:
            low = level & free
            while low:
                v = (low & -low).bit_length() - 1
                if not packed:  # the most constrained uncovered vertex
                    options = cover[v]
                packed += 1
                if packed >= room:
                    return
                free &= ~block[v]
                low = level & free
        children = []
        while options:
            low = options & -options
            options ^= low
            u = low.bit_length() - 1
            rest = uncovered & ~cover[u]
            children.append((rest.bit_count(), u, rest))
        children.sort()
        for _, u, rest in children:
            extend(rest, size + 1, mask | 1 << u)

    expanded: dict[int, int] = {}
    extend(universe, 0, 0)
    return best[0], best[1]


def is_dominating(g: Graph, s) -> bool:
    """Does every vertex lie in the set or have a neighbor in it?"""
    mask = _mask_of(g, s)
    return all((adj | 1 << v) & mask for v, adj in enumerate(g.adj))


def is_total_dominating(g: Graph, s) -> bool:
    """Does every vertex have a neighbor in the set?"""
    mask = _mask_of(g, s)
    return all(adj & mask for adj in g.adj)


# ---------------------------------------------------------------------------
# One cache per graph


# each invariant's defining predicate, by report name, as values the tracer rebinds
PREDICATES = {
    "chi": _is_proper_coloring,
    "p_o": is_opp,
    "chi2": is_packing_partition,
    "rho": is_packing,
    "rho_o": is_open_packing,
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "omega_N": is_common_neighbor_clique,
}
INVARIANTS = tuple(PREDICATES)


class fact:
    """A ``GraphFacts`` attribute computed by the decorated method on its
    first get and stored in the instance ``__dict__``, which later gets read
    first, so the method runs at most once per instance; if it raises,
    nothing is stored.  ``functools.cached_property`` does the same, but on
    Python 3.11 it takes a lock at every first get."""

    def __init__(self, method):
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


class Run:
    """What the searches of one run share: the kernel memo (``_kernels_py``,
    at most ``MEMO_MAX`` results, by exact input) and the pair theorems' class
    table (``harness._product_p_o``).  Every ``GraphFacts`` carries one; the
    facts a run builds share its run, and facts built alone get a fresh one.
    A run refers to no facts, so it keeps none alive."""

    def __init__(self) -> None:
        self.memo = OrderedDict()
        self.classes = {}


class GraphFacts:
    """The exact invariants of one graph, and what else the harness asks of it.

    The two transforms the kernels run on, ``two_step`` and ``square``, are
    built at most once each, and the solver cap is checked at most once.  Every
    name in ``INVARIANTS``, and ``hub_clique``, is a ``(value, certificate)``
    pair whose certificate has passed its predicate in ``PREDICATES`` on g.  The
    kernel searches go through ``run``'s memo, so ``omega_N`` read after ``p_o``
    reuses the clique search of the p_o driver.
    """

    def __init__(self, g: Graph, run: Run | None = None):
        self.g = g
        self.run = Run() if run is None else run

    @fact
    def _within_cap(self) -> None:
        """Refuses g past the solver cap; every search runs on n = g.n rows."""
        cap = solver_cap()
        if self.g.n > cap:
            raise SolverCapError(f"instance has {self.g.n} vertices, exact solvers cap at {cap}")

    def _solved(self, name: str, search, *args) -> tuple:
        """``search(n, *args)``, certified against ``name``'s predicate on g."""
        self._within_cap
        return _certified(self.g, PREDICATES[name], *search(self.g.n, *args))

    @fact
    def g6(self) -> str:
        return to_graph6(self.g)

    @fact
    def maxdeg(self) -> int:
        return max_degree(self.g)

    @fact
    def connected(self) -> bool:
        return is_connected(self.g)

    @fact
    def diameter_le_2(self) -> bool:
        # any two vertices are within distance 2 iff the square, with loops, is complete
        full = (1 << self.g.n) - 1
        return all(row | 1 << v == full for v, row in enumerate(self.square.adj))

    @fact
    def canonical(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """g's canonical key and the relabelling that gives it
        (``graph._canonical_form``)."""
        return _canonical_form(self.g)

    @fact
    def two_step(self) -> Graph:
        return two_step(self.g)

    @fact
    def square(self) -> Graph:
        """The square, from the two-step rows: one composition builds both."""
        return _trusted(self.g.n, _square_rows(self.g.adj, self.two_step.adj))

    @fact
    def chi(self) -> tuple[int, VertexLabeling]:
        return self._solved("chi", _kernel.chromatic_number, self.g.adj, self.run.memo)

    @fact
    def p_o(self) -> tuple[int, VertexLabeling]:
        return self._solved("p_o", _kernel.chromatic_number, self.two_step.adj, self.run.memo)

    @fact
    def chi2(self) -> tuple[int, VertexLabeling]:
        return self._solved("chi2", _kernel.chromatic_number, self.square.adj, self.run.memo)

    @fact
    def rho(self) -> tuple[int, VertexSet]:
        return self._solved("rho", _kernel.max_independent_set, self.square.adj, self.run.memo)

    @fact
    def rho_o(self) -> tuple[int, VertexSet]:
        return self._solved("rho_o", _kernel.max_independent_set, self.two_step.adj, self.run.memo)

    @fact
    def gamma(self) -> tuple[int, VertexSet]:
        closed = [row | 1 << v for v, row in enumerate(self.g.adj)]
        return self._solved("gamma", _min_cover, closed, self.square.adj)

    @fact
    def gamma_t(self) -> tuple[int, VertexSet]:
        self._within_cap
        if any(mask == 0 for mask in self.g.adj):
            raise UndefinedInvariantError(
                "total domination is undefined on graphs with isolated vertices"
            )
        return self._solved("gamma_t", _min_cover, self.g.adj, self.two_step.adj)

    @fact
    def omega_N(self) -> tuple[int, VertexSet]:
        return self._solved("omega_N", _kernel.max_independent_set,
                            complement(self.two_step).adj, self.run.memo)

    @fact
    def hub_clique(self) -> tuple[int, VertexSet]:
        """Delta and the neighbourhood of the lowest vertex of that degree, with
        no search.  Any two members share that vertex as a common neighbour, so
        it is a clique of N(g) of size Delta: Delta <= omega_N <= p_o."""
        hub = self.g.adj[list(map(int.bit_count, self.g.adj)).index(self.maxdeg)]
        return _certified(self.g, PREDICATES["omega_N"], self.maxdeg, hub)


def chromatic_number(g: Graph) -> tuple[int, VertexLabeling]:
    """Exact chromatic number and a proper coloring using exactly k labels."""
    return GraphFacts(g).chi


def open_packing_partition_number(g: Graph) -> tuple[int, VertexLabeling]:
    """Minimum number of open packings partitioning V(g), with a witness partition."""
    return GraphFacts(g).p_o


def two_distance_chromatic(g: Graph) -> tuple[int, VertexLabeling]:
    """Minimum colors so vertices within distance two differ, with a witness."""
    return GraphFacts(g).chi2


def packing_number(g: Graph) -> tuple[int, VertexSet]:
    return GraphFacts(g).rho


def open_packing_number(g: Graph) -> tuple[int, VertexSet]:
    return GraphFacts(g).rho_o


def domination_number(g: Graph) -> tuple[int, VertexSet]:
    return GraphFacts(g).gamma


def total_domination_number(g: Graph) -> tuple[int, VertexSet]:
    return GraphFacts(g).gamma_t


def omega_of_two_step(g: Graph) -> tuple[int, VertexSet]:
    """Largest vertex set of g in which any two members share a common neighbor."""
    return GraphFacts(g).omega_N


# ---------------------------------------------------------------------------
# Aggregate report


class InvariantReport(_Record):
    """All invariants of one graph; values are exact, certificates verified."""

    __slots__ = _fields = ("values", "certificates")

    def __init__(self, values: dict[str, int],
                 certificates: dict[str, VertexSet | VertexLabeling]):
        self.values = values
        self.certificates = certificates


def full_report(g: Graph, with_certificates: bool = True) -> InvariantReport:
    """Every invariant of ``INVARIANTS`` with its certificate, from one
    ``GraphFacts``; gamma_t is left out when g has an isolated vertex.

    The solves share the run of that ``GraphFacts``, and with it one kernel
    memo: when the p_o driver bounds its search by the clique number of the
    two-step graph, omega_N reuses that search instead of running it again.
    """
    facts = GraphFacts(g)
    values = {"n": g.n, "m": g.m, "Delta": max_degree(g), "delta": min_degree(g)}
    certificates = {}
    for name in INVARIANTS:
        try:
            values[name], certificates[name] = getattr(facts, name)
        except UndefinedInvariantError:  # gamma_t with an isolated vertex
            continue
    return InvariantReport(values, certificates if with_certificates else {})
