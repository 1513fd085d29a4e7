"""Pure-Python solver kernels over bit-mask adjacency.

Exact chromatic number and maximum independent set, the two NP-hard primitives
everything else reduces to.  ``openpack._kernels`` (Cython) implements the
same algorithms with the same branching and tie-breaking rules; the two
backends must return bit-identical results (see tests/test_kernels.py).

Tie-breaking is always "lowest vertex index", so repeated runs are
reproducible bit for bit.
"""

from __future__ import annotations

BACKEND = "python"


def _greedy_clique(n: int, adj: list[int]) -> list[int]:
    """Greedily grown clique: seed with a maximum-degree vertex, then repeatedly
    add the common neighbor of largest degree."""
    degs = [adj[v].bit_count() for v in range(n)]
    start = 0
    for v in range(1, n):
        if degs[v] > degs[start]:
            start = v
    clique = [start]
    cand = adj[start]
    while cand:
        pick, pick_deg = -1, -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if degs[v] > pick_deg:
                pick, pick_deg = v, degs[v]
        clique.append(pick)
        cand &= adj[pick]
    return clique


def _greedy_coloring(n: int, adj: list[int]) -> tuple[int, list[int]]:
    """Saturation-first greedy coloring; ties by degree, then lowest index."""
    degs = [adj[v].bit_count() for v in range(n)]
    colors = [0] * n
    satmask = [0] * n
    used = 0
    for _ in range(n):
        best, best_sat, best_deg = -1, -1, -1
        for v in range(n):
            if colors[v]:
                continue
            s = satmask[v].bit_count()
            if s > best_sat or (s == best_sat and degs[v] > best_deg):
                best, best_sat, best_deg = v, s, degs[v]
        forbidden = satmask[best]
        c = 1
        while forbidden >> (c - 1) & 1:
            c += 1
        colors[best] = c
        if c > used:
            used = c
        m = adj[best]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            satmask[u] |= 1 << (c - 1)
    return used, colors


def _color_with_k(n, adj, degs, k, clique):
    """Search for a proper coloring with at most k colors; DSATUR-ordered
    backtracking with the clique precolored 1..|clique|."""
    colors = [0] * n
    # counts[v][c]: how many neighbors of v currently have color c
    counts = [[0] * (k + 1) for _ in range(n)]
    sat = [0] * n

    def assign(v, c):
        colors[v] = c
        m = adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            row = counts[u]
            row[c] += 1
            if row[c] == 1:
                sat[u] += 1

    def unassign(v, c):
        colors[v] = 0
        m = adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            row = counts[u]
            row[c] -= 1
            if row[c] == 0:
                sat[u] -= 1

    for i, v in enumerate(clique):
        assign(v, i + 1)

    def extend(colored, used):
        if colored == n:
            return True
        best, best_sat, best_deg = -1, -1, -1
        for v in range(n):
            if colors[v]:
                continue
            s = sat[v]
            if s > best_sat or (s == best_sat and degs[v] > best_deg):
                best, best_sat, best_deg = v, s, degs[v]
        v = best
        row = counts[v]
        limit = used + 1 if used < k else k
        for c in range(1, limit + 1):
            if row[c] == 0:
                assign(v, c)
                if extend(colored + 1, used if c <= used else c):
                    return True
                unassign(v, c)
        return False

    if extend(len(clique), len(clique)):
        return colors
    return None


def _components(n: int, adj: list[int]) -> list[int]:
    """Vertex masks of the connected components, by lowest vertex."""
    comps = []
    rest = (1 << n) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            fresh = adj[v] & ~comp
            comp |= fresh
            frontier |= fresh
        comps.append(comp)
        rest &= ~comp
    return comps


def _induced(adj: list[int], mask: int) -> tuple[int, list[int]]:
    """Subgraph induced by one component, relabeled 0..|mask|-1 in vertex
    order."""
    verts = []
    m = mask
    while m:
        verts.append((m & -m).bit_length() - 1)
        m &= m - 1
    index = {v: i for i, v in enumerate(verts)}
    sub = []
    for v in verts:
        row = 0
        m = adj[v]
        while m:
            row |= 1 << index[(m & -m).bit_length() - 1]
            m &= m - 1
        sub.append(row)
    return len(verts), sub


def chromatic_number(n: int, adj: list[int]) -> tuple[int, list[int]]:
    """Exact chromatic number with a witness coloring (labels 1..k, all used).

    Iterative deepening between a greedy-clique lower bound and a greedy
    upper bound.  On a disconnected graph the lower bound is first raised to
    the largest chromatic number of a component (chi is their max), so no
    failing depth searches across components; the deepening itself still
    runs on the whole graph, and the witness is the one it would give alone.
    """
    return _chromatic(n, adj)


def _chromatic(n, adj):
    clique = _greedy_clique(n, adj)
    ub, greedy_colors = _greedy_coloring(n, adj)
    lb = len(clique)
    if lb == ub:
        return ub, greedy_colors
    comps = _components(n, adj)
    if len(comps) > 1:
        for comp in comps:
            if comp.bit_count() > lb:
                k, _ = _chromatic(*_induced(adj, comp))
                if k > lb:
                    lb = k
    degs = [adj[v].bit_count() for v in range(n)]
    for k in range(lb, ub):
        found = _color_with_k(n, adj, degs, k, clique)
        if found is not None:
            return k, found
    return ub, greedy_colors


def max_independent_set(n: int, adj: list[int]) -> tuple[int, int]:
    """Exact maximum independent set; returns (size, member bit mask).

    Branch and bound: branch vertex is the one of maximum residual degree;
    the inclusion branch is explored first; |cand| is the pruning bound.
    """
    full = (1 << n) - 1

    # Greedy seed: repeatedly take a minimum-residual-degree vertex.
    best_size, best_mask = 0, 0
    cand = full
    while cand:
        pick, pick_deg = -1, n + 1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & cand).bit_count()
            if d < pick_deg:
                pick, pick_deg = v, d
        best_mask |= 1 << pick
        best_size += 1
        cand &= ~(adj[pick] | 1 << pick)

    best = [best_size, best_mask]

    def explore(cand, size, mask):
        if size + cand.bit_count() <= best[0]:
            return
        if not cand:
            best[0] = size
            best[1] = mask
            return
        pick, pick_deg = -1, -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & cand).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:
            size += cand.bit_count()
            if size > best[0]:
                best[0] = size
                best[1] = mask | cand
            return
        explore(cand & ~(adj[pick] | 1 << pick), size + 1, mask | 1 << pick)
        explore(cand & ~(1 << pick), size, mask)

    explore(full, 0, 0)
    return best[0], best[1]
