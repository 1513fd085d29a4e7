"""Neighborhood-derived graphs and the structural predicates built on them.

The two transforms are the workhorses of the whole package: a vertex set is
independent in ``two_step(g)`` exactly when it is an open packing of ``g``,
and independent in ``closed_neighborhood_graph(g)`` exactly when it is a
packing of ``g``.
"""

from __future__ import annotations

from .graph import Graph, _layers, _trusted, iter_bits


def _compose(outer, inner) -> list[int]:
    """Row v is the union of ``inner[u]`` over the members u of ``outer[v]``, less v."""
    rows = []
    for v, members in enumerate(outer):
        row = 0
        while members:
            low = members & -members
            row |= inner[low.bit_length() - 1]
            members ^= low
        rows.append(row & ~(1 << v))
    return rows


def two_step(g: Graph) -> Graph:
    """Join u and v iff they have a common neighbor in g (isolated vertices stay isolated).

    The row of v is the union of the neighborhoods of v's neighbors, less v.
    """
    return _trusted(g.n, _compose(g.adj, g.adj))


def _square_rows(adj, two_step_rows) -> list[int]:
    """Rows of the square of the graph with rows ``adj``: two vertices are
    within distance 2 exactly when they are neighbours or share a neighbour,
    so row v is v's row OR its row of the two-step graph, ``two_step_rows``."""
    return [row | step for row, step in zip(adj, two_step_rows)]


def closed_neighborhood_graph(g: Graph) -> Graph:
    """Join u and v iff their closed neighborhoods meet, i.e. dist_g(u, v) <= 2.

    The row of v is v's neighborhood OR its row of the two-step graph.
    """
    return _trusted(g.n, _square_rows(g.adj, _compose(g.adj, g.adj)))


# The closed neighborhood graph coincides with the square of g.
square = closed_neighborhood_graph


def _edges_on_triangles(adj, two_step_rows) -> bool:
    """Does every edge of the graph with rows ``adj`` lie on a triangle?  An
    edge uv does iff u and v have a common neighbor, that is iff u is in v's
    row of the two-step graph, ``two_step_rows``."""
    return all(not row & ~step for row, step in zip(adj, two_step_rows))


def every_edge_on_triangle(g: Graph) -> bool:
    return _edges_on_triangles(g.adj, _compose(g.adj, g.adj))


def has_even_cycle(g: Graph) -> bool:
    """True iff g contains a cycle of even length.

    Each non-tree edge of a breadth-first forest closes one fundamental
    cycle, odd exactly when the edge joins two vertices of one layer.  Every
    cycle of g is a union of fundamental cycles, so g has no even cycle iff
    they are all odd and no two share a tree edge: two cycles through a
    shared path form three, and one of the three is always even.
    """
    adj = g.adj
    parent = [0] * g.n
    on_cycle = 0  # vertices whose edge to their parent lies on a cycle found so far
    rest = (1 << g.n) - 1
    while rest:
        above = 0
        for layer in _layers(adj, (rest & -rest).bit_length() - 1):
            rest ^= layer
            for v in iter_bits(layer):
                up = adj[v] & above
                if up & (up - 1):  # a second edge up to the previous layer
                    return True
                parent[v] = up.bit_length() - 1
                for u in iter_bits(adj[v] & layer & ((1 << v) - 1)):
                    # u and v share a layer: climb both to their common ancestor
                    a, b = u, v
                    while a != b:
                        if (on_cycle >> a | on_cycle >> b) & 1:
                            return True
                        on_cycle |= 1 << a | 1 << b
                        a, b = parent[a], parent[b]
            above = layer
    return False


def is_chordal(g: Graph) -> bool:
    """Maximum-cardinality search: g is chordal iff, as each vertex is
    numbered, its numbered neighbors form a clique (the reverse of the search
    order is then a perfect elimination order)."""
    n = g.n
    weight = [0] * n
    numbered = 0
    for _ in range(n):
        best, best_w = -1, -1
        for v in range(n):
            if not numbered >> v & 1 and weight[v] > best_w:
                best, best_w = v, weight[v]
        earlier = g.adj[best] & numbered
        for u in iter_bits(earlier):
            if earlier & ~g.adj[u] & ~(1 << u):
                return False
        numbered |= 1 << best
        for u in iter_bits(g.adj[best] & ~numbered):
            weight[u] += 1
    return True
