"""Immutable bit-mask graphs: construction, named families, invariants, a
canonical form, and enumeration by upper-triangle code (``_from_code``),
which graph6 shares.  Also the base classes of the package's records."""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, permutations, product
from operator import or_

MAX_VERTICES = 4096
ENUMERATION_MAX_N = 7


class GraphError(ValueError):
    """Invalid construction or an operation used outside its supported range."""


class _Record:
    """Base of the record types (rows, reports, certificates, product
    layouts): a subclass names its fields in ``_fields``, which are also its
    ``__slots__``.  Records are equal when their classes and field values
    are, and print as ``Name(field=value, ...)``.  The methods are written
    once here, so importing the package generates none per record."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable; a read-only record hashes by value

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle go through __init__, which a read-only record needs
        return self.__class__, self._values()


class _ReadOnly(_Record):
    """A record whose ``__init__`` sets each field once through
    ``object.__setattr__``: any later assignment or deletion raises, so one
    object may be handed to every caller."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_order(n: int) -> None:
    if n < 1:
        raise GraphError(f"a graph needs at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise GraphError(f"at most {MAX_VERTICES} vertices supported, got {n}")


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
    products return new graphs, so a value may be shared freely.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        _validate(n, adj)
        self.n = n
        self.adj = adj

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.adj)) // 2

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


def _validate(n: int, adj: tuple[int, ...]) -> None:
    """Refuse ``adj`` unless it is a simple undirected graph on ``0..n-1``:
    n rows, each in range, without a loop, and every edge stated both ways."""
    _check_order(n)
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


def _trusted(n: int, adj: Iterable[int]) -> Graph:
    """A graph whose rows are valid by the way they were built: only the order
    is checked.  ``tests/test_trusted_builders.py`` holds every caller to
    ``_validate``."""
    _check_order(n)
    g = object.__new__(Graph)
    g.n = n
    g.adj = tuple(adj)
    return g


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse, loops are rejected."""
    _check_order(n)  # before the rows are allocated: n comes from outside
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _trusted(n, adj)


# ---------------------------------------------------------------------------
# Named families


def path(n: int) -> Graph:
    _check_order(n)
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got n={n}")
    _check_order(n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return _trusted(n, [full ^ (1 << v) for v in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; one side of size zero yields the empty graph on the other side."""
    if a < 0 or b < 0:
        raise GraphError(f"K_{{a,b}} needs sides of size >= 0, got a={a} b={b}")
    n = a + b
    _check_order(n)
    left = (1 << a) - 1
    right = ((1 << n) - 1) ^ left
    return _trusted(n, [right if v < a else left for v in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 is the center."""
    _check_order(n)
    return complete_bipartite(1, n - 1)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    _check_order(n)
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
    """Uniform random labeled tree: the tree of n - 2 uniform Pruefer entries
    drawn from ``random.Random(seed)``.

    Each entry is drawn as CPython's ``randrange(n)`` draws it: take
    ``getrandbits(n.bit_length())`` and draw again while the result is n or
    more.  The entries, and so the tree, are those of ``randrange(n)`` on the
    same seed, called n - 2 times, without its two Python-level calls.
    """
    _check_order(n)
    if n == 1:
        return _trusted(1, (0,))
    draw = random.Random(seed).getrandbits
    k = n.bit_length()
    seq = []
    for _ in range(n - 2):
        x = draw(k)
        while x >= n:
            x = draw(k)
        seq.append(x)
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    """The labeled tree of a Pruefer sequence; each edge joins the smallest
    leaf left to the next entry, and the last edge joins the final leaf to
    n - 1.  Linear time: ``ptr`` is the smallest leaf not yet used, and an
    entry whose degree drops to one below ``ptr`` is the next leaf, since
    every other leaf is at least ``ptr``."""
    if n < 2:
        raise GraphError(f"a Pruefer sequence needs two or more vertices, got n={n}")
    _check_order(n)  # before the sequence is read: n comes from outside
    if len(seq) != n - 2:
        raise GraphError(f"Pruefer sequence for n={n} must have length {n - 2}")
    deg = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"Pruefer entry {x} is outside 0..{n - 1} for n={n}")
        deg[x] += 1
    adj = [0] * n
    leaf = ptr = deg.index(1)
    for x in seq:
        adj[leaf] |= 1 << x
        adj[x] |= 1 << leaf
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = deg.index(1, ptr + 1)
    adj[leaf] |= 1 << n - 1
    adj[n - 1] |= 1 << leaf
    return _trusted(n, adj)


# ---------------------------------------------------------------------------
# Elementary operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _trusted(g.n, [(full ^ g.adj[v]) & ~(1 << v) for v in range(g.n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [mask << g.n for mask in h.adj]
    return _trusted(g.n + h.n, adj)


# ---------------------------------------------------------------------------
# Elementary invariants


def max_degree(g: Graph) -> int:
    return max(map(int.bit_count, g.adj))


def min_degree(g: Graph) -> int:
    return min(map(int.bit_count, g.adj))


def _layers(adj, source: int) -> Iterator[int]:
    """Yield the masks of the vertices at distance 0, 1, 2, ... from ``source``.

    The next layer is the union of the frontier's rows, less every vertex
    seen so far.
    """
    seen = frontier = 1 << source
    while frontier:
        yield frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier


def _components(adj) -> list[int]:
    """Vertex masks of the connected components, by lowest vertex."""
    comps = []
    rest = (1 << len(adj)) - 1
    while rest:
        # the layers are disjoint, so their sum is their union
        comps.append(sum(_layers(adj, (rest & -rest).bit_length() - 1)))
        rest ^= comps[-1]
    return comps


def is_connected(g: Graph) -> bool:
    return sum(_layers(g.adj, 0)) == (1 << g.n) - 1


def is_bipartite(g: Graph) -> bool:
    """No edge lies inside a breadth-first layer of any component."""
    adj = g.adj
    rest = (1 << g.n) - 1
    while rest:
        for layer in _layers(adj, (rest & -rest).bit_length() - 1):
            rest ^= layer
            members = layer
            while members:
                low = members & -members
                if adj[low.bit_length() - 1] & layer:
                    return False
                members ^= low
    return True


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


# ---------------------------------------------------------------------------
# Canonical form


def _canonical_form(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(key, perm)``: ``key`` is the tuple of g's rows relabelled by ``perm``
    (v -> perm[v]), the least such tuple over the vertex orders that keep the
    cells of colour refinement in order.

    Refinement starts from one cell and gives each vertex its cell and the
    sorted cells of its neighbours, ranked in sorted order (so the first
    round splits by degree), until no cell splits.  The cells do not depend
    on the labels, so isomorphic graphs have the same candidate orders up to
    the isomorphism, and so the same least tuple; and the key is itself a
    relabelled copy of g, so equal keys prove isomorphism.  This is McKay and
    Piperno's canonical labelling (J. Symbolic Comput. 60, 2014) without its
    search tree: every order within the cells is tried, which is cheap for the
    factors of at most ``ENUMERATION_MAX_N`` vertices the pair grids take and
    costs 7! orders on a regular 7-vertex graph.
    """
    n = g.n
    nbrs = [list(iter_bits(row)) for row in g.adj]
    color = [0] * n
    cells = 1
    while True:
        sig = [(color[v], tuple(sorted(color[u] for u in nbrs[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(rank) == cells:
            break
        color, cells = [rank[s] for s in sig], len(rank)
    # the vertices by cell; cell c takes the places starts[c]..starts[c + 1] - 1
    order = sorted(range(n), key=color.__getitem__)
    starts = list(accumulate((color.count(c) for c in range(cells)), initial=0))
    best = best_perm = None
    perm = [0] * n
    rows = [0] * n
    for places in product(*map(permutations, map(range, starts, starts[1:]))):
        for v, p in zip(order, chain.from_iterable(places)):
            perm[v] = p
        for v in range(n):
            row = 0
            for u in nbrs[v]:
                row |= 1 << perm[u]
            rows[perm[v]] = row
        if best is None or rows < best:
            best, best_perm = list(rows), tuple(perm)
    return tuple(best), best_perm


# ---------------------------------------------------------------------------
# Codes and exhaustive enumeration


def check_enumerable(name: str, n: int, least: int = 1) -> None:
    """Refuse ``n`` outside ``least..ENUMERATION_MAX_N``, naming it ``name``."""
    if not least <= n <= ENUMERATION_MAX_N:
        raise GraphError(
            f"enumeration needs {least} <= {name} <= {ENUMERATION_MAX_N}, got {name}={n}"
        )


def _from_code(n: int, code: int) -> Graph:
    """The graph on n vertices whose code is ``code``: edge (u, v) with u < v
    is bit v(v-1)/2 + u, so column v of the upper triangle is v consecutive
    bits.  Enumeration counts codes up and graph6 writes their bits in order."""
    adj = [0] * n
    for v in range(1, n):
        column = code & ((1 << v) - 1)
        code >>= v
        adj[v] = column
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= 1 << v
            column ^= low
    return _trusted(n, adj)


def _code(g: Graph) -> int:
    """The inverse of ``_from_code``: g's columns, highest first, shifted in."""
    code = 0
    for v in range(g.n - 1, 0, -1):
        code = code << v | g.adj[v] & ((1 << v) - 1)
    return code


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, exactly once, in the order of
    their codes (``_from_code``).  ``n`` is checked at the call, before the
    first graph is asked for.

    The codes count up in blocks of ``1 << width``: the low ``width`` bits
    (columns 1..3) are decoded once into a table of rows, each block's high
    bits once, and each graph's rows are the OR of the two, as two codes that
    share no bit decode to the OR of their rows."""
    check_enumerable("n", n)
    pairs = n * (n - 1) // 2
    width = min(pairs, 6)
    low = [_from_code(n, code).adj for code in range(1 << width)]
    highs = (_from_code(n, block << width).adj for block in range(1 << pairs - width))
    return (_trusted(n, map(or_, high, rows)) for high in highs for rows in low)
