"""Pure-Python solver kernels over bit-mask adjacency.

Exact chromatic number and maximum independent set, the two NP-hard primitives
everything else reduces to.  This module is the only kernel implementation;
``openpack.solvers`` calls it as ``_kernel``.

All search state is bit masks, one Python int per vertex set, in the
one-word-per-row layout of San Segundo et al.'s bitboard solvers (Comput.
Oper. Res. 2011):

* Colouring keeps, per colour c, the mask ``sees[c]`` of vertices with a
  neighbour coloured c.  A vertex's saturation (how many colours it sees) is
  held bit-sliced over all vertices at once: slice j is the mask of vertices
  whose saturation has bit j set.  Colouring v with c adds one to the
  saturation of ``fresh = adj[v] & ~sees[c]``, a ripple-carry over the
  slices; undoing it restores ``sees[c]`` and the slices.
* The DSATUR pick (maximum saturation, then maximum degree, then lowest
  index) narrows the uncoloured mask through the slices from the top down,
  then takes the lowest vertex of the first degree level (the vertices of one
  degree, highest degree first) that meets it.
* The independent-set search prunes on the size of a greedy clique cover of
  its candidates (an independent set meets each clique at most once), the
  colouring bound of Tomita and Seki's MCQ (DMTCS 2003) read on the
  complement.

Tie-breaking is always "lowest vertex index", so repeated runs are
reproducible bit for bit.
"""

from __future__ import annotations

BACKEND = "python"


def _degree_levels(n: int, adj: list[int]) -> list[int]:
    """Vertex masks of equal degree, highest degree first."""
    by_degree = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _add_one(slices: list[int], carry: int) -> None:
    """Add one to the bit-sliced count of every vertex in carry (ripple carry)."""
    j = 0
    while carry:
        s = slices[j]
        slices[j] = s ^ carry
        carry &= s
        j += 1


def _greedy_clique(adj: list[int], levels: list[int]) -> list[int]:
    """Greedily grown clique: seed with a maximum-degree vertex, then repeatedly
    add the common neighbor of largest degree (lowest index on ties)."""
    start = levels[0] & -levels[0]
    clique = [start.bit_length() - 1]
    cand = adj[clique[0]]
    while cand:
        for level in levels:
            pick = cand & level
            if pick:
                break
        v = (pick & -pick).bit_length() - 1
        clique.append(v)
        cand &= adj[v]
    return clique


def _greedy_coloring(n: int, adj: list[int], levels: list[int]) -> tuple[int, list[int]]:
    """Saturation-first greedy coloring; ties by degree, then lowest index."""
    colors = [0] * n
    sees = []
    slices = [0] * n.bit_length()
    uncolored = (1 << n) - 1
    while uncolored:
        cand = uncolored
        for s in reversed(slices):
            if cand & s:
                cand &= s
        for level in levels:
            pick = cand & level
            if pick:
                break
        bit = pick & -pick
        uncolored ^= bit
        c = 0
        while c < len(sees) and sees[c] & bit:
            c += 1
        if c == len(sees):
            sees.append(0)
        v = bit.bit_length() - 1
        colors[v] = c + 1
        fresh = adj[v] & ~sees[c]
        sees[c] |= fresh
        _add_one(slices, fresh)
    return len(sees), colors


def _color_with_k(n, adj, levels, k, clique):
    """Search for a proper coloring with at most k colors; DSATUR-ordered
    backtracking with the clique precolored 1..|clique|."""
    colors = [0] * n
    sees = [0] * (k + 1)
    slices = [0] * k.bit_length()
    uncolored = (1 << n) - 1
    for c, v in enumerate(clique, 1):
        colors[v] = c
        fresh = adj[v] & ~sees[c]
        sees[c] |= fresh
        _add_one(slices, fresh)
        uncolored &= ~(1 << v)

    def extend(uncolored, used):
        if not uncolored:
            return True
        # the pick of _greedy_coloring, inlined on the hot path
        cand = uncolored
        for s in reversed(slices):
            if cand & s:
                cand &= s
        for level in levels:
            pick = cand & level
            if pick:
                break
        bit = pick & -pick
        v = bit.bit_length() - 1
        rest = uncolored ^ bit
        nbrs = adj[v]
        limit = used + 1 if used < k else k
        for c in range(1, limit + 1):
            seen = sees[c]
            if seen & bit:
                continue
            colors[v] = c
            carry = nbrs & ~seen
            sees[c] = seen | carry
            saved = slices[:]
            j = 0
            while carry:  # _add_one, inlined on the hot path
                s = slices[j]
                slices[j] = s ^ carry
                carry &= s
                j += 1
            if extend(rest, used if c <= used else c):
                return True
            sees[c] = seen
            slices[:] = saved
        return False

    if extend(uncolored, len(clique)):
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

    Iterative deepening between a lower bound and a greedy upper bound, with
    the greedy clique precolored.  When the greedy clique is below the greedy
    bound, the lower bound is raised before any search: on a connected graph
    to the exact clique number, on a disconnected one to the largest
    chromatic number of a component (chi is their max), so no failing depth
    searches across components.  The deepening itself still runs on the whole
    graph, and the witness is the one it would give from the greedy clique
    alone.
    """
    return _chromatic(n, adj)


def _chromatic(n, adj):
    levels = _degree_levels(n, adj)
    clique = _greedy_clique(adj, levels)
    ub, greedy_colors = _greedy_coloring(n, adj, levels)
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
    else:
        # the clique number, as an independent set of the complement; a
        # private call, so traced kernel counts see only the solvers' calls
        full = (1 << n) - 1
        lb, _ = _max_independent_set(n, [full & ~(adj[v] | 1 << v) for v in range(n)])
    for k in range(lb, ub):
        found = _color_with_k(n, adj, levels, k, clique)
        if found is not None:
            return k, found
    return ub, greedy_colors


def max_independent_set(n: int, adj: list[int]) -> tuple[int, int]:
    """Exact maximum independent set; returns (size, member bit mask).

    Branch and bound: branch vertex is the one of maximum residual degree;
    the inclusion branch is explored first.  A subtree is pruned when its
    candidates cannot beat the best set strictly: first on their count, then
    on the size of a greedy clique cover of them.  The best set changes only
    on a strictly larger one, so the first maximum found, and its mask, are
    those the count bound alone gives.
    """
    return _max_independent_set(n, adj)


def _max_independent_set(n, adj):
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
        # Clique cover of cand, lowest vertex first; stop once it has more
        # cliques than the room left above the best set.
        room = best[0] - size
        rest = cand
        while rest:
            if not room:
                break
            room -= 1
            low = rest & -rest
            rest ^= low
            grow = rest & adj[low.bit_length() - 1]
            while grow:
                b = grow & -grow
                rest ^= b
                grow &= adj[b.bit_length() - 1]
        else:
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
