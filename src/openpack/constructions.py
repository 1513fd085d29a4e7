"""Constructive optimal tree partitions and the extremal families.

Family constructors follow the 1-indexed naming v1..vn of the underlying
constructions by mapping vi to index i - 1.
"""

from __future__ import annotations

from .graph import (
    Graph,
    GraphError,
    _check_order,
    _trusted,
    complete,
    cycle,
    from_edge_list,
    iter_bits,
)
from .products import cartesian
from .solvers import VertexLabeling


def tree_opp(t: Graph) -> VertexLabeling:
    """Open packing partition of a tree into exactly max_degree(t) classes.

    Root at a maximum-degree vertex r and label it 1; r's children take the
    labels 1..Delta, one each.  Below that, the children of v take ascending
    labels distinct from the label of v's parent, so no vertex ever sees the
    same label twice in its neighborhood.  Linear time.

    A child's label depends only on its rank among its parent's children and
    on its grandparent's label, never on the order in which the vertices are
    visited, so the walk is a plain stack, and a leaf, having no children, is
    labeled but never pushed.
    """
    if t.n < 2:
        raise GraphError(f"tree labeling needs at least two vertices, got n={t.n}")
    adj = t.adj
    degs = list(map(int.bit_count, adj))
    if sum(degs) != 2 * (t.n - 1):
        raise GraphError("input is not a tree")
    delta = max(degs)
    root = degs.index(delta)
    labels = [0] * t.n
    labels[root] = 1
    parent = [-1] * t.n
    parent[root] = root
    stack = []
    for c, u in enumerate(iter_bits(adj[root]), start=1):
        labels[u] = c
        parent[u] = root
        if degs[u] > 1:
            stack.append(u)
    while stack:
        v = stack.pop()
        p = parent[v]
        banned = labels[p]
        c = 1
        mask = adj[v] ^ 1 << p
        while mask:
            low = mask & -mask
            mask ^= low
            u = low.bit_length() - 1
            if parent[u] >= 0:
                raise GraphError("input is not a tree")
            if c == banned:
                c += 1
            labels[u] = c
            parent[u] = v
            if degs[u] > 1:
                stack.append(u)
            c += 1
    # with m = n - 1, reaching every vertex is exactly connectedness
    if -1 in parent:
        raise GraphError("input is not a tree")
    return VertexLabeling(tuple(labels), delta)


def psi_graph(r: int, s: int) -> Graph:
    """r parts of even size s, with identity matchings between every two
    parts plus an internal perfect matching per part; the result is
    r-regular and the parts are simultaneously open packings and total
    dominating sets.

    Part i occupies indices [i*s, (i+1)*s); the cross matchings join equal
    offsets, the internal matching pairs consecutive offsets (2t, 2t+1).
    """
    if r < 2:
        raise GraphError(f"need at least two parts, got r={r}")
    if s < 2 or s % 2:
        raise GraphError(f"part size must be even and at least two, got s={s}")
    _check_order(r * s)
    edges = []
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(s):
                edges.append((i * s + k, j * s + k))
    for i in range(r):
        for k in range(0, s, 2):
            edges.append((i * s + k, i * s + k + 1))
    return from_edge_list(r * s, edges)


def ng_extremal(k: int) -> Graph:
    """2k vertices with every even index joined to every odd index (a K_{k,k}
    drawing whose complement is two disjoint K_k); the consecutive pairs
    {2i, 2i+1} form an optimal open packing partition."""
    if k < 3:
        raise GraphError(f"family starts at k=3, got k={k}")
    n = 2 * k
    _check_order(n)
    evens = sum(1 << v for v in range(0, n, 2))
    odds = sum(1 << v for v in range(1, n, 2))
    return _trusted(n, [odds if v % 2 == 0 else evens for v in range(n)])


def cart_sharp_instance(m: int, n: int) -> Graph:
    """cycle(4m) x complete(n) in the Cartesian sense; the instance family on
    which the Cartesian upper bound is tight."""
    if m < 1:
        raise GraphError(f"need m >= 1, got m={m}")
    if n < 3:
        raise GraphError(f"need n >= 3, got n={n}")
    g, _ = cartesian(cycle(4 * m), complete(n))
    return g
