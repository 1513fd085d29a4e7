"""Immutable bit-mask graphs: construction, named families, invariants, enumeration."""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Iterable, Iterator

MAX_VERTICES = 4096
ENUMERATION_MAX_N = 7
ISOMORPHISM_MAX_N = 16


class GraphError(ValueError):
    """Invalid construction or an operation used outside its supported range."""


class DisconnectedGraphError(GraphError):
    """A distance invariant was requested on a graph with infinite distances."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the open neighborhood of ``v`` as a bit mask.  Instances are
    immutable after construction (``adj`` is a tuple of ints); transforms and
    products return new graphs, so values are safe to share across workers.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if n < 1:
            raise GraphError("a graph needs at least one vertex")
        if n > MAX_VERTICES:
            raise GraphError(f"at most {MAX_VERTICES} vertices supported, got {n}")
        if len(adj) != n:
            raise GraphError(f"expected {n} adjacency masks, got {len(adj)}")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask < 0 or mask & ~full:
                raise GraphError(f"adjacency of {v} mentions a vertex outside 0..{n - 1}")
            if mask >> v & 1:
                raise GraphError(f"loop at vertex {v}")
            while mask:
                low = mask & -mask
                mask ^= low
                if not adj[low.bit_length() - 1] >> v & 1:
                    raise GraphError(f"edge {v}-{low.bit_length() - 1} is not symmetric")
        self.n = n
        self.adj = adj

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(mask.bit_count() for mask in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) pairs with u < v, in (v, u) lexicographic order."""
        for v in range(self.n):
            for u in iter_bits(self.adj[v] & ((1 << v) - 1)):
                yield (u, v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Graph, (self.n, self.adj))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse, loops are rejected."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# Named families


def path(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; one side of size zero yields the empty graph on the other side."""
    n = a + b
    left = (1 << a) - 1
    right = ((1 << n) - 1) ^ left
    return Graph(n, [right if v < a else left for v in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 is the center."""
    return complete_bipartite(1, n - 1)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    edges = []
    for v in range(n):
        for u in range(v):
            if rng.random() < p:
                edges.append((u, v))
    return from_edge_list(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise GraphError("a graph needs at least one vertex")
    if n == 1:
        return Graph(1, (0,))
    if n == 2:
        return from_edge_list(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    if len(seq) != n - 2:
        raise GraphError(f"Pruefer sequence for n={n} must have length {n - 2}")
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# Elementary operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [(full ^ g.adj[v]) & ~(1 << v) for v in range(g.n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [mask << g.n for mask in h.adj]
    return Graph(g.n + h.n, adj)


# ---------------------------------------------------------------------------
# Elementary invariants


def max_degree(g: Graph) -> int:
    return max(mask.bit_count() for mask in g.adj)


def min_degree(g: Graph) -> int:
    return min(mask.bit_count() for mask in g.adj)


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adj
    while queue:
        v = queue.popleft()
        step = dist[v] + 1
        mask = adj[v]
        while mask:
            low = mask & -mask
            mask ^= low
            u = low.bit_length() - 1
            if dist[u] < 0:
                dist[u] = step
                queue.append(u)
    return dist


def is_connected(g: Graph) -> bool:
    return min(_bfs_distances(g, 0)) >= 0


def is_bipartite(g: Graph) -> bool:
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in iter_bits(g.adj[v]):
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def eccentricity(g: Graph, v: int) -> int:
    dist = _bfs_distances(g, v)
    far = max(dist)
    if min(dist) < 0:
        raise DisconnectedGraphError("infinite distance: graph is disconnected")
    return far


def diameter(g: Graph) -> int:
    return max(eccentricity(g, v) for v in range(g.n))


# ---------------------------------------------------------------------------
# Exhaustive enumeration and isomorphism


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed (u, v) pair order used by enumeration and the graph6 codec."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, exactly once, deterministic order.

    Graph ``code`` has edge (u, v) iff bit t of ``code`` is set, where t is the
    position of (u, v) in ``pair_order(n)``.
    """
    if n > ENUMERATION_MAX_N:
        raise GraphError(f"exhaustive enumeration capped at n={ENUMERATION_MAX_N}")
    pairs = pair_order(n)
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for t, (u, v) in enumerate(pairs):
            if code >> t & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, adj)


def _refinement_labels(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    degs = [g.degree(v) for v in range(g.n)]
    return [
        (degs[v], tuple(sorted(degs[u] for u in iter_bits(g.adj[v]))))
        for v in range(g.n)
    ]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test over degree-refined candidate classes."""
    if max(g.n, h.n) > ISOMORPHISM_MAX_N:
        raise GraphError(f"isomorphism test capped at n={ISOMORPHISM_MAX_N}")
    if g.n != h.n or g.m != h.m:
        return False
    lab_g = _refinement_labels(g)
    lab_h = _refinement_labels(h)
    if sorted(lab_g) != sorted(lab_h):
        return False

    # Map g's vertices in a connectivity-first order so that each placement is
    # constrained by already-mapped neighbors.
    order: list[int] = []
    seen = 0
    for start in range(g.n):
        if seen >> start & 1:
            continue
        queue = deque([start])
        seen |= 1 << start
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in iter_bits(g.adj[v]):
                if not seen >> u & 1:
                    seen |= 1 << u
                    queue.append(u)

    image = [-1] * g.n
    used = 0

    def place(pos: int) -> bool:
        nonlocal used
        if pos == g.n:
            return True
        v = order[pos]
        mapped_nbrs = 0
        mapped_mask = 0
        for w in order[:pos]:
            mapped_mask |= 1 << image[w]
            if g.adj[v] >> w & 1:
                mapped_nbrs |= 1 << image[w]
        for u in range(h.n):
            if used >> u & 1 or lab_h[u] != lab_g[v]:
                continue
            if h.adj[u] & mapped_mask != mapped_nbrs:
                continue
            image[v] = u
            used |= 1 << u
            if place(pos + 1):
                return True
            used ^= 1 << u
            image[v] = -1
        return False

    return place(0)
