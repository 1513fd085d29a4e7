"""Neighborhood-derived graphs and the structural predicates built on them.

The two transforms are the workhorses of the whole package: a vertex set is
independent in ``two_step(g)`` exactly when it is an open packing of ``g``,
and independent in ``closed_neighborhood_graph(g)`` exactly when it is a
packing of ``g``.
"""

from __future__ import annotations

from .graph import Graph, _trusted, iter_bits


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


def closed_neighborhood_graph(g: Graph) -> Graph:
    """Join u and v iff their closed neighborhoods meet, i.e. dist_g(u, v) <= 2.

    The row of v is the union of the closed neighborhoods of the vertices in
    v's closed neighborhood, less v.
    """
    closed = [mask | 1 << v for v, mask in enumerate(g.adj)]
    return _trusted(g.n, _compose(closed, closed))


# The closed neighborhood graph coincides with the square of g.
square = closed_neighborhood_graph


def every_edge_on_triangle(g: Graph) -> bool:
    return all(g.adj[u] & g.adj[v] for u, v in g.edges())


def _blocks(g: Graph) -> list[tuple[int, int]]:
    """(vertex count, edge count) of every biconnected block, bridges included."""
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[tuple[int, int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    for root in range(g.n):
        if disc[root] >= 0:
            continue
        # Iterative DFS; each frame is [vertex, parent, iterator over neighbors].
        stack = [(root, -1, iter_bits(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] < 0:
                    edge_stack.append((v, u))
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, v, iter_bits(g.adj[u])))
                    advanced = True
                    break
                if u != parent and disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    verts = set()
                    nedges = 0
                    while edge_stack:
                        a, b = edge_stack.pop()
                        verts.update((a, b))
                        nedges += 1
                        if (a, b) == (pv, v):
                            break
                    out.append((len(verts), nedges))
    return out


def has_even_cycle(g: Graph) -> bool:
    """True iff g contains a cycle of even length.

    A graph has no even cycle exactly when every biconnected block is a single
    edge or a single odd cycle; any other block contains two cycles through a
    shared path, and of the three cycle lengths so formed one is always even.
    """
    for nverts, nedges in _blocks(g):
        if nedges == 1:
            continue
        if nedges != nverts or nverts % 2 == 0:
            return True
    return False


def is_chordal(g: Graph) -> bool:
    """Maximum-cardinality search followed by perfect-elimination verification."""
    n = g.n
    weight = [0] * n
    numbered = 0
    visit: list[int] = []
    for _ in range(n):
        best, best_w = -1, -1
        for v in range(n):
            if not numbered >> v & 1 and weight[v] > best_w:
                best, best_w = v, weight[v]
        numbered |= 1 << best
        visit.append(best)
        for u in iter_bits(g.adj[best]):
            if not numbered >> u & 1:
                weight[u] += 1
    order = visit[::-1]  # candidate perfect elimination order
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    for v in range(n):
        later = [u for u in iter_bits(g.adj[v]) if pos[u] > pos[v]]
        if not later:
            continue
        p = min(later, key=lambda u: pos[u])
        rest = 0
        for u in later:
            if u != p:
                rest |= 1 << u
        if rest & ~g.adj[p]:
            return False
    return True
