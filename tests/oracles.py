"""Independent brute-force oracles used to pin the solvers' expected values.

Everything here works straight from the definitions (subset enumeration,
exhaustive labelings, permutation search), or asks networkx
(``isomorphic``), and never calls the code paths it is used to check.  The
exceptions are ``reference_chromatic``,
``reference_max_independent_set``, ``reference_min_cover``,
``reference_tree_from_pruefer``, ``reference_random_tree`` and
``reference_tree_opp``: frozen copies of earlier kernel, search, decode,
sampling and labeling code that pin the exact witness bytes of the chromatic
driver and the independent-set search, the exact rows of a decoded Pruefer
sequence and of a seeded random tree, and the exact labels of a tree
partition, rather than a value; ``reference_min_cover`` fixes only the
minimum size the domination search must reach.  ``milp_min_cover`` and
``networkx_clique_number`` hand an instance to HiGHS and to networkx, and
skip the calling test where those are absent.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import combinations, permutations

import pytest

from openpack.graph import Graph, GraphError, iter_bits


def neighbors(g: Graph, v: int) -> set[int]:
    return {u for u in range(g.n) if g.adj[v] >> u & 1}


def brute_chromatic(g: Graph) -> int:
    nbrs = [neighbors(g, v) for v in range(g.n)]
    for k in range(1, g.n + 1):
        colors = [0] * g.n

        def assignable(i: int) -> bool:
            if i == g.n:
                return True
            for c in range(1, k + 1):
                if all(colors[u] != c for u in nbrs[i]):
                    colors[i] = c
                    if assignable(i + 1):
                        return True
                    colors[i] = 0
            return False

        if assignable(0):
            return k
    raise AssertionError("unreachable")


def reference_chromatic(n: int, adj: list[int]) -> tuple[int, list[int]]:
    """The chromatic driver without its component pre-pass or clique-number
    bound: iterative deepening over the whole graph from the greedy clique
    size, on the count-based search state copied verbatim below from before
    the bit-sliced one.  Every kernel change must return this (k, labels)
    exactly."""
    clique = _greedy_clique(n, adj)
    ub, greedy_colors = _greedy_coloring(n, adj)
    degs = [adj[v].bit_count() for v in range(n)]
    for k in range(len(clique), ub):
        found = _color_with_k(n, adj, degs, k, clique)
        if found is not None:
            return k, found
    return ub, greedy_colors


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


def reference_max_independent_set(n: int, adj: list[int]) -> tuple[int, int]:
    """The independent-set search with only its |cand| bound, copied
    verbatim from before the clique-cover bound.  Stronger pruning must
    return this (size, mask) exactly."""
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


def brute_max_independent_set(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m and ok:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            ok = not (g.adj[v] & mask)
        if ok:
            best = max(best, mask.bit_count())
    return best


def set_is_open_packing(g: Graph, members: tuple[int, ...]) -> bool:
    return all(
        not (g.adj[u] & g.adj[v]) for u, v in combinations(members, 2)
    )


def set_is_packing(g: Graph, members: tuple[int, ...]) -> bool:
    closed = {v: g.adj[v] | 1 << v for v in members}
    return all(
        not (closed[u] & closed[v]) for u, v in combinations(members, 2)
    )


def brute_open_packing_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for members in combinations(range(g.n), size):
            if set_is_open_packing(g, members):
                return size
    return best


def brute_packing_number(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for members in combinations(range(g.n), size):
            if set_is_packing(g, members):
                return size
    return 0


def brute_open_packing_partition_number(g: Graph) -> int:
    """Smallest k admitting a labeling where no vertex has two same-labeled
    neighbors; exhaustive over labelings with pruning."""
    nbrs = [neighbors(g, v) for v in range(g.n)]
    for k in range(1, g.n + 1):
        labels = [0] * g.n

        def ok_prefix(i: int) -> bool:
            # only the constraint windows touching vertex i need rechecking
            for v in range(g.n):
                seen = set()
                for u in nbrs[v]:
                    if labels[u] == 0:
                        continue
                    if labels[u] in seen:
                        return False
                    seen.add(labels[u])
            return True

        def assign(i: int) -> bool:
            if i == g.n:
                return True
            for c in range(1, k + 1):
                labels[i] = c
                if ok_prefix(i) and assign(i + 1):
                    return True
            labels[i] = 0
            return False

        if assign(0):
            return k
    raise AssertionError("unreachable")


def brute_two_distance_chromatic(g: Graph) -> int:
    """Smallest k so that vertices at distance <= 2 get distinct labels."""
    dist = [bfs_distances(g, v) for v in range(g.n)]
    conflict = [
        {u for u in range(g.n) if u != v and 0 <= dist[v][u] <= 2}
        for v in range(g.n)
    ]
    for k in range(1, g.n + 1):
        labels = [0] * g.n

        def assign(i: int) -> bool:
            if i == g.n:
                return True
            for c in range(1, k + 1):
                if all(labels[u] != c for u in conflict[i]):
                    labels[i] = c
                    if assign(i + 1):
                        return True
                    labels[i] = 0
            return False

        if assign(0):
            return k
    raise AssertionError("unreachable")


def brute_domination(g: Graph) -> int:
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    for size in range(0, g.n + 1):
        for members in combinations(range(g.n), size):
            mask = sum(1 << v for v in members)
            if all(closed[v] & mask for v in range(g.n)):
                return size
    raise AssertionError("unreachable")


def reference_min_cover(n: int, cover: list[int]) -> tuple[int, int]:
    """The domination search with only its static coverage bound, copied
    verbatim from before its packing and residual-gain bounds, trying options
    in ascending order.  It fixes the minimum size; the search, which tries
    the options that cover the most first, may return another minimum mask."""
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


def milp_min_cover(n: int, cover: list[int]) -> int:
    """Minimum number of vertices whose ``cover`` rows union to all n, as a
    0-1 set-cover ILP solved by scipy's HiGHS: ``cover[v]`` is both what v
    covers and who covers v, so each vertex's row must meet the chosen set."""
    optimize = pytest.importorskip("scipy.optimize")
    rows = [[cover[v] >> u & 1 for u in range(n)] for v in range(n)]
    result = optimize.milp(
        c=[1] * n, integrality=[1] * n, bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(rows, lb=1, ub=n))
    if result.status != 0:
        raise AssertionError(f"HiGHS found no optimum: {result.message}")
    return round(result.fun)


def brute_total_domination(g: Graph) -> int | None:
    if any(mask == 0 for mask in g.adj):
        return None
    for size in range(1, g.n + 1):
        for members in combinations(range(g.n), size):
            mask = sum(1 << v for v in members)
            if all(g.adj[v] & mask for v in range(g.n)):
                return size
    raise AssertionError("unreachable")


def brute_clique_number(g: Graph) -> int:
    for size in range(g.n, 1, -1):
        for members in combinations(range(g.n), size):
            if all(g.adj[u] >> v & 1 for u, v in combinations(members, 2)):
                return size
    return 1


def brute_two_step(g: Graph) -> list[int]:
    """Adjacency masks of the two-step graph by scanning every vertex pair
    for a common neighbor."""
    nbrs = [neighbors(g, v) for v in range(g.n)]
    return [
        sum(1 << u for u in range(g.n) if u != v and nbrs[u] & nbrs[v])
        for v in range(g.n)
    ]


def brute_square(g: Graph) -> list[int]:
    """Adjacency masks of the square by scanning every vertex pair for
    meeting closed neighborhoods."""
    closed = [neighbors(g, v) | {v} for v in range(g.n)]
    return [
        sum(1 << u for u in range(g.n) if u != v and closed[u] & closed[v])
        for v in range(g.n)
    ]


def _scan(n: int, adjacent) -> list[int]:
    """Adjacency masks on vertices 0..n-1 by testing ``adjacent(i, j)`` on
    every ordered pair of distinct vertices."""
    return [sum(1 << j for j in range(n) if j != i and adjacent(i, j)) for i in range(n)]


def _edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def brute_cartesian(g: Graph, h: Graph) -> list[int]:
    """(a, b) ~ (u, v) iff a ~ u in g and b = v, or a = u and b ~ v in h;
    (a, b) is vertex a * |V(h)| + b."""
    def adjacent(i, j):
        (a, b), (u, v) = divmod(i, h.n), divmod(j, h.n)
        return (_edge(g, a, u) and b == v) or (a == u and _edge(h, b, v))
    return _scan(g.n * h.n, adjacent)


def brute_direct(g: Graph, h: Graph) -> list[int]:
    """(a, b) ~ (u, v) iff a ~ u in g and b ~ v in h."""
    def adjacent(i, j):
        (a, b), (u, v) = divmod(i, h.n), divmod(j, h.n)
        return _edge(g, a, u) and _edge(h, b, v)
    return _scan(g.n * h.n, adjacent)


def brute_strong(g: Graph, h: Graph) -> list[int]:
    """(a, b) ~ (u, v) iff the pairs differ and each coordinate is equal or
    adjacent."""
    def adjacent(i, j):
        (a, b), (u, v) = divmod(i, h.n), divmod(j, h.n)
        return (a == u or _edge(g, a, u)) and (b == v or _edge(h, b, v))
    return _scan(g.n * h.n, adjacent)


def brute_lexicographic(g: Graph, h: Graph) -> list[int]:
    """(a, b) ~ (u, v) iff a ~ u in g, or a = u and b ~ v in h."""
    def adjacent(i, j):
        (a, b), (u, v) = divmod(i, h.n), divmod(j, h.n)
        return _edge(g, a, u) or (a == u and _edge(h, b, v))
    return _scan(g.n * h.n, adjacent)


def brute_corona(g: Graph, h: Graph) -> list[int]:
    """g on vertices 0..|V(g)|-1, then one copy of h per base vertex i on
    |V(g)| + i|V(h)| onwards, with i joined to every vertex of its copy."""
    def place(i):  # (base vertex, None) or (owner, vertex of h)
        return (i, None) if i < g.n else divmod(i - g.n, h.n)

    def adjacent(i, j):
        (a, b), (u, v) = place(i), place(j)
        if b is None and v is None:
            return _edge(g, a, u)
        if b is not None and v is not None:
            return a == u and _edge(h, b, v)
        return a == u
    return _scan(g.n * (1 + h.n), adjacent)


def brute_complement(g: Graph) -> list[int]:
    """u ~ v iff u != v and u, v are not adjacent in g."""
    return _scan(g.n, lambda u, v: not _edge(g, u, v))


def brute_disjoint_union(g: Graph, h: Graph) -> list[int]:
    """g on vertices 0..|V(g)|-1 and h after it, with no edge between them."""
    def adjacent(i, j):
        if i < g.n and j < g.n:
            return _edge(g, i, j)
        if i >= g.n and j >= g.n:
            return _edge(h, i - g.n, j - g.n)
        return False
    return _scan(g.n + h.n, adjacent)


def bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in neighbors(g, v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def brute_has_even_cycle(g: Graph) -> bool:
    """Enumerate all simple cycles by DFS from each smallest vertex."""
    nbrs = [sorted(neighbors(g, v)) for v in range(g.n)]
    found = False

    def walk(start: int, v: int, visited: set[int], length: int) -> None:
        nonlocal found
        if found:
            return
        for u in nbrs[v]:
            if u == start and length >= 3:
                if length % 2 == 0:
                    found = True
                    return
            elif u > start and u not in visited:
                visited.add(u)
                walk(start, u, visited, length + 1)
                visited.remove(u)

    for s in range(g.n):
        walk(s, s, {s}, 1)
        if found:
            return True
    return False


def brute_is_chordal(g: Graph) -> bool:
    """No vertex subset induces a cycle of length >= 4."""
    for size in range(4, g.n + 1):
        for members in combinations(range(g.n), size):
            inside = sum(1 << v for v in members)
            degs = [(g.adj[v] & inside).bit_count() for v in members]
            if any(d != 2 for d in degs):
                continue
            # 2-regular induced subgraph; connected means a single cycle
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                v = stack.pop()
                for u in neighbors(g, v):
                    if inside >> u & 1 and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == size:
                return False
    return True


def networkx_clique_number(n: int, rows) -> int:
    """networkx's ``max_weight_clique`` size on the graph with adjacency
    masks ``rows``; the calling test is skipped where networkx is not
    installed."""
    networkx = pytest.importorskip("networkx")
    nxg = networkx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from((u, v) for u in range(n) for v in range(u) if rows[u] >> v & 1)
    return len(networkx.max_weight_clique(nxg, weight=None)[0])


def permutation_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    g_edges = {frozenset(e) for e in g.edges()}
    h_edges = {frozenset(e) for e in h.edges()}
    if len(g_edges) != len(h_edges):
        return False
    for perm in permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in h_edges for u, v in g_edges):
            return True
    return False


def isomorphic(g: Graph, h: Graph) -> bool:
    """networkx's isomorphism test on g and h; the calling test is skipped
    where networkx is not installed."""
    networkx = pytest.importorskip("networkx")
    graphs = []
    for x in (g, h):
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(x.n))
        nxg.add_edges_from(x.edges())
        graphs.append(nxg)
    return networkx.is_isomorphic(*graphs)


def reference_tree_from_pruefer(n: int, seq: list[int]) -> tuple[int, ...]:
    """The rows of the Pruefer decode as a heap of leaves, copied from before
    the pointer decode: each entry joins the smallest leaf left, and the last
    two leaves join.  The pointer decode must return these rows exactly."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    adj = [0] * n
    for x in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf] |= 1 << x
        adj[x] |= 1 << leaf
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return tuple(adj)


def reference_random_tree(n: int, seed: int) -> tuple[int, ...]:
    """The rows of ``random_tree(n, seed)`` as it was drawn before its
    entries came from ``getrandbits``: n - 2 calls of ``randrange(n)`` on
    ``random.Random(seed)``, decoded by the heap decode above."""
    if n == 1:
        return (0,)
    rng = random.Random(seed)
    return reference_tree_from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])


def reference_tree_opp(adj: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(labels, k) of ``tree_opp`` as it was before its stack walk: a
    breadth-first queue from the lowest maximum-degree vertex, every vertex
    queued.  Refuses what is not a tree on two or more vertices as
    ``tree_opp`` does."""
    n = len(adj)
    if n < 2:
        raise GraphError(f"tree labeling needs at least two vertices, got n={n}")
    degs = [mask.bit_count() for mask in adj]
    if sum(degs) != 2 * (n - 1):
        raise GraphError("input is not a tree")
    delta = max(degs)
    root = degs.index(delta)
    labels = [0] * n
    labels[root] = 1
    parent = [-1] * n
    parent[root] = root
    queue: deque[int] = deque()
    for c, u in enumerate(iter_bits(adj[root]), start=1):
        labels[u] = c
        parent[u] = root
        queue.append(u)
    while queue:
        v = queue.popleft()
        p = parent[v]
        banned = labels[p]
        c = 1
        mask = adj[v] & ~(1 << p)
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
            queue.append(u)
            c += 1
    if any(p < 0 for p in parent):
        raise GraphError("input is not a tree")
    return tuple(labels), delta
