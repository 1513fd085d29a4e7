"""Exact solvers for every supported invariant, each with a certificate.

Everything NP-hard funnels through two kernels (exact chromatic number and
maximum independent set) applied to the neighborhood transforms:

* ``open_packing_partition_number`` = chromatic number of ``two_step(g)``
* ``two_distance_chromatic``        = chromatic number of ``square(g)``
* ``open_packing_number``           = independence number of ``two_step(g)``
* ``packing_number``                = independence number of ``square(g)``
* ``omega_of_two_step``             = independence number of its complement

No solver returns a bare number: the certificate is validated against the
defining predicate before being handed back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graph import Graph, complement, iter_bits, max_degree, min_degree
from .transforms import closed_neighborhood_graph, two_step

try:
    from . import _kernels as _kernel
except ImportError:  # compiled extension not built; pure fallback
    from . import _kernels_py as _kernel

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
    """Name of the active kernel implementation: "cython" or "python"."""
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


def chromatic_number(g: Graph) -> tuple[int, VertexLabeling]:
    """Exact chromatic number and a proper coloring using exactly k labels."""
    _require_within_cap(g)
    k, colors = _kernel.chromatic_number(g.n, list(g.adj))
    try:
        labeling = VertexLabeling(tuple(colors), k)
    except ValueError as exc:
        raise CertificateError(f"kernel coloring does not use exactly 1..{k}") from exc
    if not _is_proper_coloring(g, labeling):
        raise CertificateError("kernel coloring is not proper")
    return k, labeling


def max_independent_set(g: Graph) -> tuple[int, VertexSet]:
    """Maximum independent set size and one witness set."""
    _require_within_cap(g)
    size, mask = _kernel.max_independent_set(g.n, list(g.adj))
    cert = VertexSet(mask)
    if cert.size != size or mask >> g.n or not _is_independent(g, mask):
        raise CertificateError("kernel set is not an independent set of the claimed size")
    return size, cert


def _is_proper_coloring(g: Graph, labeling: VertexLabeling) -> bool:
    if len(labeling.labels) != g.n:
        return False
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

    Computed two ways (no vertex sees a repeated label in its neighborhood;
    every class is an open packing) and cross-asserted.
    """
    if len(labeling.labels) != g.n:
        raise ValueError("labeling length does not match the graph")
    labels = labeling.labels
    by_neighborhoods = True
    for v in range(g.n):
        seen = 0
        mask = g.adj[v]
        while mask:
            low = mask & -mask
            mask ^= low
            bit = 1 << labels[low.bit_length() - 1]
            if seen & bit:
                by_neighborhoods = False
                mask = 0
            else:
                seen |= bit
        if not by_neighborhoods:
            break
    by_classes = all(is_open_packing(g, mask) for mask in labeling.classes())
    assert by_neighborhoods == by_classes
    return by_neighborhoods


def open_packing_number(g: Graph) -> tuple[int, VertexSet]:
    size, cert = max_independent_set(two_step(g))
    assert is_open_packing(g, cert)
    return size, cert


def packing_number(g: Graph) -> tuple[int, VertexSet]:
    size, cert = max_independent_set(closed_neighborhood_graph(g))
    assert is_packing(g, cert)
    return size, cert


def open_packing_partition_number(g: Graph) -> tuple[int, VertexLabeling]:
    """Minimum number of open packings partitioning V(g), with a witness partition."""
    k, labeling = chromatic_number(two_step(g))
    assert is_opp(g, labeling)
    return k, labeling


def two_distance_chromatic(g: Graph) -> tuple[int, VertexLabeling]:
    """Minimum colors so vertices within distance two differ, with a witness."""
    k, labeling = chromatic_number(closed_neighborhood_graph(g))
    assert all(is_packing(g, mask) for mask in labeling.classes())
    return k, labeling


def omega_of_two_step(g: Graph) -> tuple[int, VertexSet]:
    """Largest vertex set of g in which any two members share a common neighbor."""
    ng = two_step(g)
    size, cert = max_independent_set(complement(ng))
    members = cert.members()
    assert all(
        ng.adj[u] >> v & 1 for i, u in enumerate(members) for v in members[i + 1:]
    )
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
        assert partner.bit_count() <= 1
        if partner:
            second |= partner
        first |= 1 << v
    assert first | second == bits and not first & second
    p1, p2 = VertexSet(first), VertexSet(second)
    assert is_packing(g, p1) and is_packing(g, p2)
    return p1, p2


# ---------------------------------------------------------------------------
# Domination


def _min_cover(n: int, cover: list[int]) -> tuple[int, int]:
    """Minimum number of vertices whose cover masks union to V.

    ``cover[u]`` doubles as "what selecting u covers" and "who can cover u"
    (the two coincide for both closed and open neighborhoods).  Branches on a
    most-constrained uncovered vertex; prunes with a static coverage bound.
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

    max_cover = max(cover[u].bit_count() for u in range(n))

    def extend(uncovered: int, size: int, mask: int) -> None:
        if not uncovered:
            if size < best[0]:
                best[0], best[1] = size, mask
            return
        if size + -(-uncovered.bit_count() // max_cover) >= best[0]:
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


def domination_number(g: Graph) -> tuple[int, VertexSet]:
    _require_within_cap(g)
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    size, mask = _min_cover(g.n, closed)
    cert = VertexSet(mask)
    assert all(closed[v] & mask for v in range(g.n))
    return size, cert


def total_domination_number(g: Graph) -> tuple[int, VertexSet]:
    _require_within_cap(g)
    if any(mask == 0 for mask in g.adj):
        raise UndefinedInvariantError(
            "total domination is undefined on graphs with isolated vertices"
        )
    size, mask = _min_cover(g.n, list(g.adj))
    cert = VertexSet(mask)
    assert all(g.adj[v] & mask for v in range(g.n))
    return size, cert


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
        assert rho_o <= gamma_t

    # internal consistency: the certified values must satisfy the elementary bounds
    assert rho <= gamma
    assert values["Delta"] <= po
    assert chi2 <= 2 * po and po <= chi2
    assert g.n <= po * rho_o and po <= g.n - rho_o + 1
    assert omega_n <= po

    return InvariantReport(values, certificates if with_certificates else {})
