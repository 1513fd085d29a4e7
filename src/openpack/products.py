"""The four standard graph products and the corona.

Product vertices are laid out row-major with the first factor major:
``(gi, hi)`` sits at index ``gi * |V(H)| + hi``, so certificates computed on a
product can be mapped back to factor coordinates.  The corona places the base
graph on indices ``0..|V(G)|-1`` followed by one contiguous copy of H per base
vertex.  This module is the one place that arithmetic is written: each
layout's ``vertex_map`` carries it through relabellings of the factors.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, GraphError, _ReadOnly, _trusted, iter_bits


class _Layout(_ReadOnly):
    """The factor orders a product's vertex layout is computed from; the
    layouts are read-only values, equal when their kind and orders are."""

    __slots__ = _fields = ("g_size", "h_size")

    def __init__(self, g_size: int, h_size: int):
        object.__setattr__(self, "g_size", g_size)
        object.__setattr__(self, "h_size", h_size)


class ProductVertexMap(_Layout):
    """Bijection between product indices and (g-index, h-index) pairs."""

    __slots__ = ()

    @property
    def n(self) -> int:
        """Vertex count of the product: one vertex per pair."""
        return self.g_size * self.h_size

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(divmod(i, self.h_size) for i in range(self.n))

    def vertex_map(self, sigma_g, sigma_h) -> list[int]:
        """Where each vertex of this product lies in the same product of the
        factors relabelled by sigma_g and sigma_h (vertex v of a factor
        renamed ``sigma[v]``): (a, b) at sigma_g(a)|H| + sigma_h(b)."""
        h_n = self.h_size
        return [a * h_n + b for a in sigma_g for b in sigma_h]

    def to_json_obj(self) -> dict:
        return {"kind": "product", "g_size": self.g_size, "h_size": self.h_size,
                "pairs": [list(p) for p in self.pairs]}


class CoronaLayout(_Layout):
    """Index layout of a corona: base vertex i at index i, its copy of H at
    ``copy_range(i)``."""

    __slots__ = ()

    @property
    def n(self) -> int:
        """Vertex count of the corona: the base graph plus one copy of H per
        base vertex."""
        return self.g_size * (1 + self.h_size)

    def copy_range(self, i: int) -> tuple[int, int]:
        start = self.g_size + i * self.h_size
        return start, start + self.h_size

    def vertex_map(self, sigma_g, sigma_h) -> list[int]:
        """Where each vertex of this corona lies in the corona of the factors
        relabelled by sigma_g and sigma_h: base vertex i at sigma_g(i), and
        vertex b of i's copy at offset sigma_h(b) in the copy of sigma_g(i)."""
        g_n, h_n = self.g_size, self.h_size
        return [*sigma_g, *(g_n + a * h_n + b for a in sigma_g for b in sigma_h)]

    def to_json_obj(self) -> dict:
        return {"kind": "corona", "g_size": self.g_size, "h_size": self.h_size,
                "copy_ranges": [list(self.copy_range(i)) for i in range(self.g_size)]}


def order(op: str, g_n: int, h_n: int) -> int:
    """Vertex count of the product named ``op`` (a key of ``PRODUCTS``) of a
    g_n-vertex and an h_n-vertex graph, known before anything is built."""
    return (CoronaLayout if op == "corona" else ProductVertexMap)(g_n, h_n).n


def _check_size(layout: ProductVertexMap | CoronaLayout) -> None:
    if layout.n > MAX_VERTICES:
        raise GraphError(f"product would have {layout.n} vertices, cap is {MAX_VERTICES}")


def _product(g: Graph, h: Graph, across, within) -> tuple[Graph, ProductVertexMap]:
    """The product whose adjacency is A_G (x) X + I (x) Y, where row b of X is
    ``across[b]`` and row b of Y is ``within[b]`` (masks over V(H)).

    Row (a, b) holds a copy of ``across[b]`` in the block of every neighbor
    of a, and ``within[b]`` in a's own block.  ``spread`` has one bit at the
    start of each neighbor's block, so ``across[b] * spread`` places all the
    copies at once: every ``across[b]`` is below 2^|H| and the blocks are
    |H| bits apart, so the shifted copies never overlap and the
    multiplication makes no carry.
    """
    layout = ProductVertexMap(g.n, h.n)
    _check_size(layout)
    adj = []
    for a, nbrs in enumerate(g.adj):
        spread = 0
        for u in iter_bits(nbrs):
            spread |= 1 << (u * h.n)
        base = a * h.n
        for b in range(h.n):
            adj.append(across[b] * spread | within[b] << base)
    return _trusted(layout.n, adj), layout


def cartesian(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Adjacent iff adjacent in one coordinate and equal in the other:
    A_G (x) I + I (x) A_H."""
    return _product(g, h, [1 << b for b in range(h.n)], h.adj)


def direct(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Adjacent iff adjacent in both coordinates: A_G (x) A_H."""
    return _product(g, h, h.adj, [0] * h.n)


def strong(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Edge set is the union of the Cartesian and direct edge sets:
    (A_G + I) (x) (A_H + I) - I."""
    return _product(g, h, [mask | 1 << b for b, mask in enumerate(h.adj)], h.adj)


def lexicographic(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """(a,b) ~ (u,v) iff au is an edge of g, or a = u and bv is an edge of h:
    A_G (x) J + I (x) A_H."""
    return _product(g, h, [(1 << h.n) - 1] * h.n, h.adj)


def corona(g: Graph, h: Graph) -> tuple[Graph, CoronaLayout]:
    """g plus one copy of h per base vertex, that vertex joined to its whole copy."""
    layout = CoronaLayout(g.n, h.n)
    _check_size(layout)
    adj = [0] * layout.n
    for v in range(g.n):
        adj[v] = g.adj[v]
    h_full = (1 << h.n) - 1
    for i in range(g.n):
        start = g.n + i * h.n
        adj[i] |= h_full << start
        for b in range(h.n):
            adj[start + b] = (h.adj[b] << start) | (1 << i)
    return _trusted(layout.n, adj), layout


def isolated_vertex_count(h: Graph) -> int:
    return sum(1 for mask in h.adj if mask == 0)


# every product by the name the CLI and ``order`` know it by
PRODUCTS = {
    "cart": cartesian,
    "direct": direct,
    "strong": strong,
    "lex": lexicographic,
    "corona": corona,
}
