"""Isomorphism-deduplicated catalogues of small graphs for exhaustive tests.

Unlabeled graphs on exactly n vertices are enumerated by walking the edge
lattice upward from the empty graph and canonicalising each candidate.
The canonical form is the minimum edge bitmask over all relabelings that
sort a colour-refinement partition, which is sound because the refinement
is isomorphism-invariant.  Known class counts are asserted in the tests.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from powerhyper import Graph, is_connected

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))
K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4 = Graph(4, tuple(combinations(range(4), 2)))
C6 = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
STAR3 = Graph(4, ((0, 1), (0, 2), (0, 3)))


@lru_cache(maxsize=None)
def _pairs(n):
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_index(n):
    return {p: i for i, p in enumerate(_pairs(n))}


def _refined_colours(n, adj):
    colours = [len(adj[v]) for v in range(n)]
    for _ in range(2):
        keys = [
            (colours[v], tuple(sorted(colours[w] for w in adj[v]))) for v in range(n)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        colours = [ranks[key] for key in keys]
    return colours


@lru_cache(maxsize=None)
def canonical_mask(n, mask):
    pairs = _pairs(n)
    pidx = _pair_index(n)
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colours = _refined_colours(n, adj)
    order = sorted(range(n), key=lambda v: colours[v])
    groups = []
    i = 0
    while i < n:
        j = i
        while j < n and colours[order[j]] == colours[order[i]]:
            j += 1
        groups.append(tuple(order[i:j]))
        i = j
    best = None
    for parts in product(*(permutations(group) for group in groups)):
        label = {}
        pos = 0
        for part in parts:
            for v in part:
                label[v] = pos
                pos += 1
        remapped = 0
        for u, v in edges:
            a, b = label[u], label[v]
            remapped |= 1 << pidx[(a, b) if a < b else (b, a)]
        if best is None or remapped < best:
            best = remapped
    return best


@lru_cache(maxsize=None)
def _classes_on(n):
    """Canonical edge masks of every unlabeled graph on exactly n vertices."""
    n_pairs = len(_pairs(n))
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for mask in frontier:
            for ei in range(n_pairs):
                if not mask >> ei & 1:
                    canon = canonical_mask(n, mask | (1 << ei))
                    if canon not in seen:
                        seen.add(canon)
                        fresh.append(canon)
        frontier = fresh
    return tuple(sorted(seen))


def _decode(n, mask):
    pairs = _pairs(n)
    return Graph(n, tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1))


@lru_cache(maxsize=None)
def graphs_on(n):
    """All unlabeled graphs on exactly n vertices."""
    return tuple(_decode(n, mask) for mask in _classes_on(n))


@lru_cache(maxsize=None)
def connected_graphs(max_n, min_n=2, max_edges=None, min_edges=None):
    """One representative per isomorphism class of connected graphs."""
    out = []
    for n in range(min_n, max_n + 1):
        for g in graphs_on(n):
            if max_edges is not None and g.m > max_edges:
                continue
            if min_edges is not None and g.m < min_edges:
                continue
            if is_connected(g):
                out.append(g)
    return tuple(out)


def random_graphs(st, max_n, max_edges):
    """Hypothesis strategy: simple graphs on 1..max_n vertices, connected or not."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = _pairs(n)
        if not pairs:
            return Graph(n, ())
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
        return Graph(n, tuple(edges))

    return build()


# Traversal-free references for the graph predicates: union-find for
# connectivity, exhaustive search over vertex +-1 vectors for balance.


def _union_find_groups(vertices, edges):
    """Vertex groups joined by edges, each sorted, ordered by smallest member."""
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    groups = {}
    for v in sorted(parent):
        groups.setdefault(root(v), []).append(v)
    return sorted(groups.values())


def ref_components(g):
    return _union_find_groups(range(g.n), g.edges)


def edges_span_connected(g, idxs):
    """Whether the edges idxs of g (a nonempty list) form a connected subgraph."""
    edges = [g.edges[i] for i in idxs]
    return len(_union_find_groups({v for e in edges for v in e}, edges)) == 1


def ref_is_balanced(g, signs):
    """Some +-1 vertex vector x has x[u] * sign * x[v] = +1 on every edge."""
    return any(
        all(x[u] * s * x[v] == 1 for (u, v), s in zip(g.edges, signs))
        for x in product((1, -1), repeat=g.n)
    )


def ref_is_bipartite(g):
    return ref_is_balanced(g, (-1,) * g.m)


def all_signings(g):
    """Every sign assignment over the edges of g."""
    from powerhyper import SignedGraph

    for signs in product((1, -1), repeat=g.m):
        yield SignedGraph(g, signs)


def ref_closed_walks(g, d, covering):
    """Closed walks of length d, from every start, using every edge an even
    number of times (and each at least once when covering), by enumeration."""
    adj = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    uses = [0] * g.m

    def walks_from(start, v, left, odd):
        if odd > left:  # each step changes the number of odd-use edges by one
            return 0
        if left == 0:
            return v == start and (not covering or 0 not in uses)
        total = 0
        for w, i in adj[v]:
            uses[i] += 1
            total += walks_from(start, w, left - 1, odd + (1 if uses[i] % 2 else -1))
            uses[i] -= 1
        return total

    return sum(walks_from(s, s, d, 0) for s in range(g.n))
