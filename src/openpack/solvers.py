"""Exact solvers for every supported invariant, each with a certificate.

Everything NP-hard funnels through two kernels (exact chromatic number and
maximum independent set) applied to the neighborhood transforms:

* ``open_packing_partition_number`` = chromatic number of ``two_step(g)``
* ``two_distance_chromatic``        = chromatic number of ``square(g)``
* ``open_packing_number``           = independence number of ``two_step(g)``
* ``packing_number``                = independence number of ``square(g)``
* ``omega_of_two_step``             = independence number of its complement

No solver returns a bare number: each checks its certificate once, against
the predicate that defines the invariant on the input graph, by explicit code
that raises ``CertificateError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import _kernels_py as _kernel
from .graph import Graph, complement, iter_bits, max_degree, min_degree
from .transforms import closed_neighborhood_graph, two_step

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
        if requested < cap:
            cap = requested
    return cap


def _require_within_cap(g: Graph) -> None:
    cap = solver_cap()
    if g.n > cap:
        raise SolverCapError(f"instance has {g.n} vertices, exact solvers cap at {cap}")


# ---------------------------------------------------------------------------
# Certificate types


@dataclass(frozen=True)
class VertexSet:
    """A vertex subset of a host graph, as a bit mask."""

    bits: int

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> list[int]:
        return list(iter_bits(self.bits))

    @staticmethod
    def of(vertices) -> "VertexSet":
        return VertexSet(sum(1 << v for v in set(vertices)))


@dataclass(frozen=True)
class VertexLabeling:
    """A surjective labeling V -> {1..k}; the classes form a vertex partition."""

    labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1 or not self.labels:
            raise ValueError("labeling needs at least one label and one vertex")
        if set(self.labels) != set(range(1, self.k + 1)):
            raise ValueError(f"labels must use every value in 1..{self.k}")

    def classes(self) -> list[int]:
        """Class bit masks, indexed by label - 1."""
        masks = [0] * self.k
        for v, lab in enumerate(self.labels):
            masks[lab - 1] |= 1 << v
        return masks


def _as_mask(s) -> int:
    return s.bits if isinstance(s, VertexSet) else int(s)


# ---------------------------------------------------------------------------
# Kernels with certificates


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


def _kernel_coloring(g: Graph) -> tuple[int, VertexLabeling]:
    """Kernel coloring of g, checked only for its shape: one label per vertex, onto 1..k."""
    _require_within_cap(g)
    k, colors = _kernel.chromatic_number(g.n, list(g.adj))
    try:
        labeling = VertexLabeling(tuple(colors), k)
    except ValueError as exc:
        raise CertificateError(f"kernel coloring does not use exactly 1..{k}") from exc
    _check(len(colors) == g.n, "kernel coloring does not label every vertex once")
    return k, labeling


def _kernel_independent_set(g: Graph) -> tuple[int, VertexSet]:
    """Kernel set of g, checked only for its shape: the claimed size, no bits beyond n."""
    _require_within_cap(g)
    size, mask = _kernel.max_independent_set(g.n, list(g.adj))
    _check(mask.bit_count() == size and not mask >> g.n,
           "kernel set has the wrong size or bits beyond n")
    return size, VertexSet(mask)


def chromatic_number(g: Graph) -> tuple[int, VertexLabeling]:
    """Exact chromatic number and a proper coloring using exactly k labels."""
    k, labeling = _kernel_coloring(g)
    _check(_is_proper_coloring(g, labeling), "kernel coloring is not proper")
    return k, labeling


def max_independent_set(g: Graph) -> tuple[int, VertexSet]:
    """Maximum independent set size and one witness set."""
    size, cert = _kernel_independent_set(g)
    _check(_is_independent(g, cert.bits), "kernel set is not independent")
    return size, cert


def _is_proper_coloring(g: Graph, labeling: VertexLabeling) -> bool:
    return all(labeling.labels[u] != labeling.labels[v] for u, v in g.edges())


def _is_independent(g: Graph, mask: int) -> bool:
    return all(not g.adj[v] & mask for v in iter_bits(mask))


# ---------------------------------------------------------------------------
# Packing-side invariants


def is_open_packing(g: Graph, s) -> bool:
    """No two distinct members share a common neighbor.

    Equivalent linear form: no vertex of g has two neighbors in the set.
    """
    mask = _as_mask(s)
    return all((g.adj[v] & mask).bit_count() <= 1 for v in range(g.n))


def is_packing(g: Graph, s) -> bool:
    """Closed neighborhoods of members are pairwise disjoint.

    Equivalent linear form: no closed neighborhood meets the set twice.
    """
    mask = _as_mask(s)
    return all(((g.adj[v] | 1 << v) & mask).bit_count() <= 1 for v in range(g.n))


def is_opp(g: Graph, labeling: VertexLabeling) -> bool:
    """Is the labeling an open packing partition?

    Every class is an open packing exactly when no vertex sees a repeated
    label in its open neighborhood, which is what is checked.
    """
    if len(labeling.labels) != g.n:
        raise ValueError("labeling length does not match the graph")
    labels = labeling.labels
    for v in range(g.n):
        seen = 0
        mask = g.adj[v]
        while mask:
            low = mask & -mask
            mask ^= low
            bit = 1 << labels[low.bit_length() - 1]
            if seen & bit:
                return False
            seen |= bit
    return True


def is_packing_partition(g: Graph, labeling: VertexLabeling) -> bool:
    """Is every class of the labeling a packing, i.e. is it a 2-distance coloring?"""
    return all(is_packing(g, mask) for mask in labeling.classes())


def is_common_neighbor_clique(g: Graph, s) -> bool:
    """Does every pair of members share a common neighbor (a clique of two_step(g))?"""
    members = list(iter_bits(_as_mask(s)))
    return all(g.adj[u] & g.adj[v] for i, u in enumerate(members) for v in members[i + 1:])


def open_packing_number(g: Graph) -> tuple[int, VertexSet]:
    size, cert = _kernel_independent_set(two_step(g))
    _check(is_open_packing(g, cert), "kernel set is not an open packing")
    return size, cert


def packing_number(g: Graph) -> tuple[int, VertexSet]:
    size, cert = _kernel_independent_set(closed_neighborhood_graph(g))
    _check(is_packing(g, cert), "kernel set is not a packing")
    return size, cert


def open_packing_partition_number(g: Graph) -> tuple[int, VertexLabeling]:
    """Minimum number of open packings partitioning V(g), with a witness partition."""
    k, labeling = _kernel_coloring(two_step(g))
    _check(is_opp(g, labeling), "kernel coloring is not an open packing partition")
    return k, labeling


def two_distance_chromatic(g: Graph) -> tuple[int, VertexLabeling]:
    """Minimum colors so vertices within distance two differ, with a witness."""
    k, labeling = _kernel_coloring(closed_neighborhood_graph(g))
    _check(is_packing_partition(g, labeling), "kernel coloring is not a packing partition")
    return k, labeling


def omega_of_two_step(g: Graph) -> tuple[int, VertexSet]:
    """Largest vertex set of g in which any two members share a common neighbor."""
    size, cert = _kernel_independent_set(complement(two_step(g)))
    _check(is_common_neighbor_clique(g, cert), "kernel set is not a common-neighbor clique")
    return size, cert


def split_open_packing(g: Graph, s) -> tuple[VertexSet, VertexSet]:
    """Split an open packing into two packings.

    The members induce a graph of maximum degree one, so the split keeps the
    isolated members plus the lower endpoint of every induced edge on one
    side and collects the other endpoints on the second (possibly empty) side.
    """
    bits = _as_mask(s)
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


def _min_cover(n: int, cover: list[int]) -> tuple[int, int]:
    """Minimum number of vertices whose cover masks union to V.

    ``cover[u]`` doubles as "what selecting u covers" and "who can cover u"
    (the two coincide for both closed and open neighborhoods).  Branches on a
    most-constrained uncovered vertex.  A subtree is pruned once a lower bound
    on the picks it still needs reaches ``room = best - size``; the bounds,
    cheapest first:

    * static: ceil(|uncovered| / largest cover);
    * packing: uncovered vertices with pairwise disjoint covers, taken greedily
      by ascending cover size, each need their own pick.  For closed covers
      they form a 2-packing (rho <= gamma), for open covers an open packing
      (rho_o <= gamma_t), the T14 bounds;
    * residual gain: the fewest t whose t largest residual gains
      ``|cover[u] & uncovered|`` add up to |uncovered|.

    ``best`` changes only on a strictly smaller cover, and a pruned subtree
    holds none, so the bounds change the running time, never the result.
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
    by_size = [(1 << v, cover[v]) for v in sorted(range(n), key=sizes.__getitem__)]

    def extend(uncovered: int, size: int, mask: int) -> None:
        if not uncovered:
            if size < best[0]:
                best[0], best[1] = size, mask
            return
        room = best[0] - size
        left = uncovered.bit_count()
        if -(-left // max_cover) >= room:
            return
        packed, hit = 0, 0
        for bit, cv in by_size:
            if uncovered & bit and not cv & hit:
                packed += 1
                if packed >= room:
                    return
                hit |= cv
        gains = sorted([(cv & uncovered).bit_count() for cv in cover], reverse=True)
        if sum(gains[:room - 1]) < left:
            return
        pick, nopts = -1, n + 1
        m = uncovered
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            c = cover[v].bit_count()
            if c < nopts:
                pick, nopts = v, c
        for u in iter_bits(cover[pick]):
            extend(uncovered & ~cover[u], size + 1, mask | 1 << u)

    extend(universe, 0, 0)
    return best[0], best[1]


def is_dominating(g: Graph, s) -> bool:
    """Does every vertex lie in the set or have a neighbor in it?"""
    mask = _as_mask(s)
    return all((adj | 1 << v) & mask for v, adj in enumerate(g.adj))


def is_total_dominating(g: Graph, s) -> bool:
    """Does every vertex have a neighbor in the set?"""
    mask = _as_mask(s)
    return all(adj & mask for adj in g.adj)


def _certified_cover(g: Graph, cover: list[int], covers) -> tuple[int, VertexSet]:
    size, mask = _min_cover(g.n, cover)
    _check(mask.bit_count() == size and not mask >> g.n and covers(g, mask),
           "search result is not a cover of the claimed size")
    return size, VertexSet(mask)


def domination_number(g: Graph) -> tuple[int, VertexSet]:
    _require_within_cap(g)
    return _certified_cover(g, [g.adj[v] | 1 << v for v in range(g.n)], is_dominating)


def total_domination_number(g: Graph) -> tuple[int, VertexSet]:
    _require_within_cap(g)
    if any(mask == 0 for mask in g.adj):
        raise UndefinedInvariantError(
            "total domination is undefined on graphs with isolated vertices"
        )
    return _certified_cover(g, list(g.adj), is_total_dominating)


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass
class InvariantReport:
    """All invariants of one graph; values are exact, certificates verified."""

    values: dict[str, int]
    certificates: dict[str, VertexSet | VertexLabeling]


def full_report(g: Graph, with_certificates: bool = True) -> InvariantReport:
    _require_within_cap(g)
    chi, chi_lab = chromatic_number(g)
    po, po_lab = open_packing_partition_number(g)
    chi2, chi2_lab = two_distance_chromatic(g)
    rho, rho_set = packing_number(g)
    rho_o, rho_o_set = open_packing_number(g)
    gamma, gamma_set = domination_number(g)
    omega_n, omega_set = omega_of_two_step(g)

    values = {
        "n": g.n,
        "m": g.m,
        "Delta": max_degree(g),
        "delta": min_degree(g),
        "chi": chi,
        "p_o": po,
        "chi2": chi2,
        "rho": rho,
        "rho_o": rho_o,
        "gamma": gamma,
        "omega_N": omega_n,
    }
    certificates = {
        "chi": chi_lab,
        "p_o": po_lab,
        "chi2": chi2_lab,
        "rho": rho_set,
        "rho_o": rho_o_set,
        "gamma": gamma_set,
        "omega_N": omega_set,
    }
    if all(mask != 0 for mask in g.adj):
        gamma_t, gamma_t_set = total_domination_number(g)
        values["gamma_t"] = gamma_t
        certificates["gamma_t"] = gamma_t_set
    return InvariantReport(values, certificates if with_certificates else {})
