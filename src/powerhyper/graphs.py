"""Simple graphs and signed graphs: parsing, classification, switching, balance,
and the subgraph machinery everything else is built on.

Vertices are dense integers 0..n-1.  Edges are unordered pairs stored as
(min, max) tuples, kept in input order.  Both graph types are frozen and
hashable so spectral results can be memoised on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import GraphParseError, PreconditionError

# Entry bound shared by every memo in the package.
CACHE_SIZE = 4096


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple

    def __post_init__(self):
        edges = tuple((u, v) if u <= v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(adjacency_lists(self)[v])

    def edge_index(self, e) -> int:
        u, v = min(e), max(e)
        try:
            return self.edges.index((u, v))
        except ValueError:
            raise PreconditionError(f"({u},{v}) is not an edge") from None


@dataclass(frozen=True)
class SignedGraph:
    """Graph together with a +1/-1 sign per edge, in edge order."""

    graph: Graph
    signs: tuple

    def __post_init__(self):
        signs = tuple(self.signs)
        object.__setattr__(self, "signs", signs)
        if len(signs) != self.graph.m:
            raise ValueError("need exactly one sign per edge")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")


class GraphClass(Enum):
    TREE = "Tree"
    ODD_UNICYCLIC = "OddUnicyclic"
    BIPARTITE_NON_TREE = "BipartiteNonTree"
    GENERAL = "General"


def all_positive(g: Graph) -> SignedGraph:
    return SignedGraph(g, (1,) * g.m)


def all_negative(g: Graph) -> SignedGraph:
    return SignedGraph(g, (-1,) * g.m)


def negate(sg: SignedGraph) -> SignedGraph:
    return SignedGraph(sg.graph, tuple(-s for s in sg.signs))


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Format: one "u v" pair per line; lines starting with '#' (and blank
    lines) are ignored.  An optional first line "n m" declares the vertex
    count; it is recognised as a header only when m equals the number of
    edge lines that follow, n covers every label used, and at least one
    edge line follows.  Without a header, n is 1 + the largest label.
    Self-loops, duplicate edges, and malformed tokens are errors that name
    the offending line.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two tokens, got {len(parts)}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"malformed token in {parts!r}", lineno) from None
        if a < 0 or b < 0:
            raise GraphParseError("vertex labels must be nonnegative", lineno)
        rows.append((lineno, a, b))

    if not rows:
        raise GraphParseError("no edges found", None)

    header_n = None
    first_line, a0, b0 = rows[0]
    rest = rows[1:]
    if rest and b0 == len(rest):
        max_label = max(max(a, b) for _, a, b in rest)
        if a0 >= max_label + 1:
            header_n = a0
            rows = rest

    edges = []
    seen = set()
    for lineno, a, b in rows:
        if a == b:
            raise GraphParseError(f"self-loop at vertex {a}", lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphParseError(f"duplicate edge ({key[0]},{key[1]})", lineno)
        seen.add(key)
        edges.append(key)

    n = header_n if header_n is not None else 1 + max(max(e) for e in edges)
    return Graph(n, tuple(edges))


@lru_cache(maxsize=CACHE_SIZE)
def adjacency_lists(g: Graph) -> tuple:
    """Neighbour lists as a tuple of tuples of (neighbour, edge index)."""
    adj = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    return tuple(tuple(row) for row in adj)


def adjacency_matrix(g: Graph) -> list:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    return a


def signed_adjacency_matrix(sg: SignedGraph) -> list:
    a = [[0] * sg.graph.n for _ in range(sg.graph.n)]
    for (u, v), s in zip(sg.graph.edges, sg.signs):
        a[u][v] = a[v][u] = s
    return a


def _forest(g: Graph):
    """The BFS spanning forest of g, as (order, via).

    order lists every vertex in BFS order, component by component, each
    component rooted at its lowest vertex; via[v] is the index of the tree
    edge from v to its parent, or -1 at a root.  Neighbours are visited in
    adjacency_lists order.
    """
    adj = adjacency_lists(g)
    via = [None] * g.n
    order = []
    head = 0
    for s in range(g.n):
        if via[s] is not None:
            continue
        via[s] = -1
        order.append(s)
        while head < len(order):
            for w, ei in adj[order[head]]:
                if via[w] is None:
                    via[w] = ei
                    order.append(w)
            head += 1
    return order, via


def components(g: Graph) -> list:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    order, via = _forest(g)
    out = []
    for v in order:
        if via[v] < 0:
            out.append([])
        out[-1].append(v)
    return [sorted(comp) for comp in out]


def is_connected(g: Graph) -> bool:
    if g.m < g.n - 1:
        return False
    return _forest(g)[1].count(-1) == 1


def spanning_tree_edges(g: Graph) -> tuple:
    """Edge indices of the BFS spanning forest rooted at the lowest vertices."""
    return tuple(sorted(ei for ei in _forest(g)[1] if ei >= 0))


def _gauge(g: Graph, signs):
    """Vertex potentials and the switching-class representative of a signing.

    Each forest root gets +1 and the forest edges propagate it, so
    rep[e] = pot[u]*signs[e]*pot[v] is +1 on every forest edge: the gauge of
    switching_classes.  By Harary's theorem the signing is balanced exactly
    when -1 is not in rep.
    """
    order, via = _forest(g)
    pot = [1] * g.n
    for v in order:
        ei = via[v]
        if ei >= 0:
            a, b = g.edges[ei]
            pot[v] = pot[a + b - v] * signs[ei]  # a + b - v is v's parent
    rep = tuple(pot[u] * sign * pot[v] for (u, v), sign in zip(g.edges, signs))
    return pot, rep


def is_bipartite(g: Graph) -> bool:
    return -1 not in _gauge(g, (-1,) * g.m)[1]


def classify(g: Graph) -> GraphClass:
    """Classify a connected graph as Tree / OddUnicyclic / BipartiteNonTree / General."""
    if not is_connected(g):
        raise PreconditionError("classify requires a connected graph")
    if g.m == g.n - 1:
        return GraphClass.TREE
    bipartite = is_bipartite(g)
    if g.m == g.n and not bipartite:
        return GraphClass.ODD_UNICYCLIC
    if bipartite:
        return GraphClass.BIPARTITE_NON_TREE
    return GraphClass.GENERAL


def switching_classes(g: Graph):
    """One representative signing per switching class of g.

    Gauge: +1 on spanning_tree_edges(g), every sign pattern on the other
    edges (bit j of the pattern negates the j-th of them).  A graph with c
    components has exactly 2^(m - n + c) classes.
    """
    tree = set(spanning_tree_edges(g))
    free = [i for i in range(g.m) if i not in tree]
    for bits in range(1 << len(free)):
        signs = [1] * g.m
        for j, ei in enumerate(free):
            if bits >> j & 1:
                signs[ei] = -1
        yield SignedGraph(g, tuple(signs))


def switch(sg: SignedGraph, s) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in the vertex set s."""
    s = set(s)
    for v in s:
        if not (0 <= v < sg.graph.n):
            raise PreconditionError(f"vertex {v} out of range")
    signs = tuple(
        -sign if ((u in s) != (v in s)) else sign
        for (u, v), sign in zip(sg.graph.edges, sg.signs)
    )
    return SignedGraph(sg.graph, signs)


def is_balanced(sg: SignedGraph):
    """Decide balance of a connected signed graph.

    Returns (True, potentials) where potentials is a +-1 vector with
    d[u]*sign(u,v)*d[v] = +1 on every edge, or (False, None).  The witness
    is built by spanning-tree propagation with vertex 0 fixed to +1.
    """
    if not is_connected(sg.graph):
        raise PreconditionError("balance test requires a connected graph")
    pot, rep = _gauge(sg.graph, sg.signs)
    return (False, None) if -1 in rep else (True, tuple(pot))


def is_antibalanced(sg: SignedGraph):
    """Balance of the sign-negated graph: equivalence to the all-negative signing."""
    return is_balanced(negate(sg))


def connected_edge_subsets(g: Graph, max_edges: int) -> list:
    """All nonempty edge-index subsets, of size <= max_edges, spanning a connected subgraph.

    Subsets are returned as sorted index tuples in ascending bitmask order,
    each exactly once.  They are grown by extension over edge adjacency (two
    edges are adjacent when they share an endpoint), so the cost is
    output-sensitive: O(m) work per subset returned, plus one sort, where a
    scan of all 2^m masks would pay for every subset of any size.
    """
    if max_edges < 1:
        raise PreconditionError("max_edges must be >= 1")
    if g.m > 20:
        raise PreconditionError("edge subset enumeration capped at 20 edges")
    incident = [sum(1 << i for _, i in row) for row in adjacency_lists(g)]
    neighbours = [(incident[u] | incident[v]) ^ (1 << i) for i, (u, v) in enumerate(g.edges)]
    return [
        tuple(i for i in range(g.m) if mask >> i & 1)
        for mask in _connected_sets(neighbours, max_edges)
    ]


def _connected_sets(neighbours, max_size):
    """Every connected set of 1..max_size elements, as bitmasks in ascending order.

    neighbours[i] is the bitmask of the elements adjacent to element i.  This
    is ESU-style extension (Wernicke, "Efficient detection of network
    motifs", 2006): a set is grown from its smallest element, its root, and
    only by elements above the root that are neither in the set nor adjacent
    to it when they are offered, so each set is produced exactly once.
    """
    out = []
    for root, root_nbrs in enumerate(neighbours):
        above = -1 << (root + 1)
        stack = [(1 << root, (1 << root) | root_nbrs, root_nbrs & above, 1)]
        while stack:
            members, closed, ext, size = stack.pop()
            out.append(members)
            if size == max_size:
                continue
            while ext:
                bit = ext & -ext
                ext ^= bit
                nbrs = neighbours[bit.bit_length() - 1]
                stack.append(
                    (members | bit, closed | nbrs, ext | (nbrs & ~closed & above), size + 1)
                )
    out.sort()
    return out


def edge_subgraph(g: Graph, idxs):
    """Subgraph spanned by the given edge indices, compactly relabelled.

    Isolated vertices are dropped.  Returns (subgraph, vmap) where vmap
    maps old labels to new ones.
    """
    verts = sorted({v for i in idxs for v in g.edges[i]})
    vmap = {v: j for j, v in enumerate(verts)}
    edges = tuple((vmap[g.edges[i][0]], vmap[g.edges[i][1]]) for i in sorted(idxs))
    return Graph(len(verts), edges), vmap


def delete_edge(g: Graph, e) -> Graph:
    i = g.edge_index(e)
    return Graph(g.n, g.edges[:i] + g.edges[i + 1 :])


def delete_vertex(g: Graph, v: int):
    """Remove a vertex, relabel compactly, and return (graph, old-to-new map)."""
    if not (0 <= v < g.n):
        raise PreconditionError(f"vertex {v} out of range")
    if g.n == 1:
        raise PreconditionError("cannot delete the only vertex")
    vmap = {u: (u if u < v else u - 1) for u in range(g.n) if u != v}
    edges = tuple(
        (vmap[a], vmap[b]) for a, b in g.edges if a != v and b != v
    )
    return Graph(g.n - 1, edges), vmap


def is_cut_edge(g: Graph, e) -> bool:
    u, v = min(e), max(e)
    h = delete_edge(g, (u, v))
    comp_of = {}
    for ci, comp in enumerate(components(h)):
        for w in comp:
            comp_of[w] = ci
    return comp_of[u] != comp_of[v]
