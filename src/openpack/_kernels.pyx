# cython: boundscheck=False, wraparound=False, initializedcheck=False, cdivision=True
"""Compiled solver kernels on uint64 adjacency masks (n <= 64).

Algorithmic twin of ``openpack._kernels_py``: identical branching and
tie-breaking rules, so both backends return bit-identical results.
"""

from libc.stdint cimport uint64_t

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil
    int __builtin_ctzll(unsigned long long) nogil

BACKEND = "cython"

cdef uint64_t ONE = 1


cdef inline uint64_t _full_mask(int n) noexcept nogil:
    if n >= 64:
        return <uint64_t>0xFFFFFFFFFFFFFFFF
    return (ONE << n) - 1


# ---------------------------------------------------------------------------
# Chromatic number

cdef struct ColorState:
    int n
    int k
    uint64_t adj[64]
    int degs[64]
    int colors[64]
    int sat[64]
    int counts[64][65]


cdef int _greedy_clique(int n, uint64_t* adj, int* degs, int* out) noexcept nogil:
    cdef int start = 0, size, v, pick, pick_deg
    cdef uint64_t cand, m
    for v in range(1, n):
        if degs[v] > degs[start]:
            start = v
    out[0] = start
    size = 1
    cand = adj[start]
    while cand:
        pick = -1
        pick_deg = -1
        m = cand
        while m:
            v = __builtin_ctzll(m)
            m &= m - 1
            if degs[v] > pick_deg:
                pick = v
                pick_deg = degs[v]
        out[size] = pick
        size += 1
        cand &= adj[pick]
    return size


cdef int _greedy_coloring(int n, uint64_t* adj, int* degs, int* colors) noexcept nogil:
    cdef uint64_t satmask[64]
    cdef int used = 0, i, v, best, best_sat, best_deg, s, c
    cdef uint64_t m, forbidden
    for v in range(n):
        colors[v] = 0
        satmask[v] = 0
    for i in range(n):
        best = -1
        best_sat = -1
        best_deg = -1
        for v in range(n):
            if colors[v]:
                continue
            s = __builtin_popcountll(satmask[v])
            if s > best_sat or (s == best_sat and degs[v] > best_deg):
                best = v
                best_sat = s
                best_deg = degs[v]
        forbidden = satmask[best]
        c = 1
        while (forbidden >> (c - 1)) & 1:
            c += 1
        colors[best] = c
        if c > used:
            used = c
        m = adj[best]
        while m:
            v = __builtin_ctzll(m)
            m &= m - 1
            satmask[v] |= ONE << (c - 1)
    return used


cdef inline void _assign(ColorState* st, int v, int c) noexcept nogil:
    cdef uint64_t m = st.adj[v]
    cdef int u
    st.colors[v] = c
    while m:
        u = __builtin_ctzll(m)
        m &= m - 1
        st.counts[u][c] += 1
        if st.counts[u][c] == 1:
            st.sat[u] += 1


cdef inline void _unassign(ColorState* st, int v, int c) noexcept nogil:
    cdef uint64_t m = st.adj[v]
    cdef int u
    st.colors[v] = 0
    while m:
        u = __builtin_ctzll(m)
        m &= m - 1
        st.counts[u][c] -= 1
        if st.counts[u][c] == 0:
            st.sat[u] -= 1


cdef bint _extend(ColorState* st, int colored, int used) noexcept nogil:
    cdef int best = -1, best_sat = -1, best_deg = -1
    cdef int v, s, c, limit
    if colored == st.n:
        return True
    for v in range(st.n):
        if st.colors[v]:
            continue
        s = st.sat[v]
        if s > best_sat or (s == best_sat and st.degs[v] > best_deg):
            best = v
            best_sat = s
            best_deg = st.degs[v]
    v = best
    limit = used + 1 if used < st.k else st.k
    for c in range(1, limit + 1):
        if st.counts[v][c] == 0:
            _assign(st, v, c)
            if _extend(st, colored + 1, used if c <= used else c):
                return True
            _unassign(st, v, c)
    return False


cdef bint _color_with_k(ColorState* st, int k, int* clique, int clique_size) noexcept nogil:
    cdef int v, c, i
    st.k = k
    for v in range(st.n):
        st.colors[v] = 0
        st.sat[v] = 0
        for c in range(k + 1):
            st.counts[v][c] = 0
    for i in range(clique_size):
        _assign(st, clique[i], i + 1)
    return _extend(st, clique_size, clique_size)


cdef int _components(int n, uint64_t* adj, uint64_t* comps) noexcept nogil:
    """Vertex masks of the connected components, by lowest vertex."""
    cdef uint64_t rest = _full_mask(n), comp, frontier, fresh
    cdef int count = 0, v
    while rest:
        comp = rest & (~rest + 1)
        frontier = comp
        while frontier:
            v = __builtin_ctzll(frontier)
            frontier &= frontier - 1
            fresh = adj[v] & ~comp
            comp |= fresh
            frontier |= fresh
        comps[count] = comp
        count += 1
        rest &= ~comp
    return count


cdef int _induced(uint64_t* adj, uint64_t mask, uint64_t* sub) noexcept nogil:
    """Subgraph induced by one component, relabeled in vertex order."""
    cdef int index[64]
    cdef int size = 0, i = 0, v
    cdef uint64_t m = mask, nbrs, row
    while m:
        v = __builtin_ctzll(m)
        m &= m - 1
        index[v] = size
        size += 1
    m = mask
    while m:
        v = __builtin_ctzll(m)
        m &= m - 1
        row = 0
        nbrs = adj[v]
        while nbrs:
            row |= ONE << index[__builtin_ctzll(nbrs)]
            nbrs &= nbrs - 1
        sub[i] = row
        i += 1
    return size


cdef int _chromatic(int n, uint64_t* adj, int* colors) noexcept nogil:
    """Iterative deepening from the largest chromatic number of a component
    (see chromatic_number); writes the witness into colors, returns k."""
    cdef ColorState st
    cdef int clique[64]
    cdef uint64_t comps[64]
    cdef uint64_t sub[64]
    cdef int sub_colors[64]
    cdef int v, k, i, count, clique_size, lb, ub
    st.n = n
    for v in range(n):
        st.adj[v] = adj[v]
        st.degs[v] = __builtin_popcountll(adj[v])
    clique_size = _greedy_clique(n, st.adj, st.degs, clique)
    ub = _greedy_coloring(n, st.adj, st.degs, colors)
    lb = clique_size
    if lb == ub:
        return ub
    count = _components(n, st.adj, comps)
    if count > 1:
        for i in range(count):
            if __builtin_popcountll(comps[i]) > lb:
                k = _chromatic(_induced(st.adj, comps[i], sub), sub, sub_colors)
                if k > lb:
                    lb = k
    for k in range(lb, ub):
        if _color_with_k(&st, k, clique, clique_size):
            for v in range(n):
                colors[v] = st.colors[v]
            return k
    return ub


def chromatic_number(n, adj):
    """Exact chromatic number with a witness coloring (labels 1..k, all used).

    On a disconnected graph the lower bound is first raised to the largest
    chromatic number of a component; the witness is unchanged by it.
    """
    if n > 64:
        raise ValueError("compiled kernel supports n <= 64")
    cdef uint64_t masks[64]
    cdef int colors[64]
    cdef int v, k
    for v in range(n):
        masks[v] = <uint64_t> adj[v]
    k = _chromatic(n, masks, colors)
    return k, [colors[v] for v in range(n)]


# ---------------------------------------------------------------------------
# Maximum independent set

cdef struct MisState:
    int n
    uint64_t adj[64]
    int best_size
    uint64_t best_mask


cdef void _mis(MisState* st, uint64_t cand, int size, uint64_t mask) noexcept nogil:
    cdef int pick = -1, pick_deg = -1, v, d
    cdef uint64_t m
    if size + __builtin_popcountll(cand) <= st.best_size:
        return
    if cand == 0:
        st.best_size = size
        st.best_mask = mask
        return
    m = cand
    while m:
        v = __builtin_ctzll(m)
        m &= m - 1
        d = __builtin_popcountll(st.adj[v] & cand)
        if d > pick_deg:
            pick = v
            pick_deg = d
    if pick_deg == 0:
        size += __builtin_popcountll(cand)
        if size > st.best_size:
            st.best_size = size
            st.best_mask = mask | cand
        return
    _mis(st, cand & ~(st.adj[pick] | (ONE << pick)), size + 1, mask | (ONE << pick))
    _mis(st, cand & ~(ONE << pick), size, mask)


def max_independent_set(n, adj):
    """Exact maximum independent set; returns (size, member bit mask)."""
    if n > 64:
        raise ValueError("compiled kernel supports n <= 64")
    cdef MisState st
    cdef uint64_t cand, m, full
    cdef int v, d, pick, pick_deg
    st.n = n
    for v in range(n):
        st.adj[v] = <uint64_t> adj[v]
    full = _full_mask(n)

    # Greedy seed: repeatedly take a minimum-residual-degree vertex.
    st.best_size = 0
    st.best_mask = 0
    cand = full
    while cand:
        pick = -1
        pick_deg = n + 1
        m = cand
        while m:
            v = __builtin_ctzll(m)
            m &= m - 1
            d = __builtin_popcountll(st.adj[v] & cand)
            if d < pick_deg:
                pick = v
                pick_deg = d
        st.best_mask |= ONE << pick
        st.best_size += 1
        cand &= ~(st.adj[pick] | (ONE << pick))

    _mis(&st, full, 0, 0)
    return st.best_size, st.best_mask
