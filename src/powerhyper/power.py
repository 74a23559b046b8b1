"""k-power hypergraphs: construction, the second-largest eigenvalue modulus,
exact spectral moments, eigenvalue multiplicities, and eigenvector lifting.

The k-power hypergraph of a graph g is the k-uniform hypergraph obtained by
adding k-2 fresh vertices to every edge.  Its spectral radius is
spectral_radius(g)^(2/k); the second-largest modulus is governed by the
weakest edges of g (the edges whose removal lowers the spectral radius the
least).  All multiplicity outputs are arbitrary-precision integers; no
floating shortcut is taken for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistencyError, PreconditionError
from .graphs import (
    CACHE_SIZE,
    Graph,
    GraphClass,
    _connected_sets,
    adjacency_lists,
    classify,
    connected_edge_subsets,
    delete_edge,
    delete_vertex,
    edge_subgraph,
    is_connected,
    switching_classes,
)
from .spectra import (
    lambda_min,
    perron_pair,
    rho_vertex_deleted,
    rho_unbalanced,
    spectral_radius,
    spectrum,
    weakest_edges,
)
from .variety import origin_multiplicity
from .walks import COVERING_EDGE_CAP, covering_parity_closed_walks

MODULUS_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class PowerHypergraph:
    """k-uniform expansion of a base graph.

    Vertices 0..n-1 are the originals; after them come k-2 core vertices
    per base edge, in edge order.  Each hyperedge is one base edge plus its
    cores, so every core vertex lies in exactly one hyperedge.
    """

    k: int
    base: Graph

    def __post_init__(self):
        if self.k < 3:
            raise PreconditionError("power hypergraphs need k >= 3")

    @property
    def n_vertices(self) -> int:
        return self.base.n + (self.k - 2) * self.base.m

    def cores_of_edge(self, i: int) -> tuple:
        start = self.base.n + i * (self.k - 2)
        return tuple(range(start, start + self.k - 2))

    def owner_edge(self, v: int):
        """Base edge index owning an added core vertex, None for originals."""
        if v < self.base.n:
            return None
        return (v - self.base.n) // (self.k - 2)

    def hyperedges(self) -> tuple:
        return _hyperedges(self)


def build_power(g: Graph, k: int) -> PowerHypergraph:
    return PowerHypergraph(k, g)


@lru_cache(maxsize=CACHE_SIZE)
def _hyperedges(h: PowerHypergraph) -> tuple:
    return tuple(
        (u, v) + h.cores_of_edge(i) for i, (u, v) in enumerate(h.base.edges)
    )


@lru_cache(maxsize=CACHE_SIZE)
def _incidence(h: PowerHypergraph) -> tuple:
    inc = [[] for _ in range(h.n_vertices)]
    for he in _hyperedges(h):
        for v in he:
            inc[v].append(he)
    return tuple(tuple(row) for row in inc)


def power_spectral_radius(g: Graph, k: int) -> float:
    """Spectral radius of the k-power hypergraph: spectral_radius(g)^(2/k)."""
    if k < 3:
        raise PreconditionError("power hypergraphs need k >= 3")
    if not is_connected(g):
        raise PreconditionError("power spectral radius requires a connected graph")
    return spectral_radius(g) ** (2.0 / k)


def second_modulus_candidates(g: Graph, k: int) -> dict:
    """The deletion/signing radii competing for the second-largest modulus.

    For k >= 4 the only candidate is the edge-deletion radius.  For k = 3
    the eigenvalues come from induced subgraphs instead, so the candidates
    depend on the graph class: the vertex-deletion radius always, plus
    |lambda_min| when there is an odd cycle, plus the best strictly-smaller
    switching-class radius when that set is nonempty.
    """
    if k < 3:
        raise PreconditionError("power hypergraphs need k >= 3")
    if not is_connected(g):
        raise PreconditionError("second modulus requires a connected graph")
    if g.m < 2:
        raise PreconditionError("second modulus needs at least two edges")
    if k >= 4:
        return {"rho_edge_deleted": weakest_edges(g).rho}
    cls = classify(g)
    cand = {"rho_vertex_deleted": rho_vertex_deleted(g)}
    if cls in (GraphClass.BIPARTITE_NON_TREE, GraphClass.GENERAL):
        ru = rho_unbalanced(g)
        if ru is None:
            raise InternalInconsistencyError(
                "non-tree bipartite/general graph has no sub-radius switching class"
            )
        cand["rho_unbalanced"] = ru
    if cls in (GraphClass.ODD_UNICYCLIC, GraphClass.GENERAL):
        cand["abs_lambda_min"] = -lambda_min(g)
    return cand


def second_largest_modulus(g: Graph, k: int) -> float:
    """Second-largest modulus among eigenvalues of the k-power hypergraph."""
    return max(second_modulus_candidates(g, k).values()) ** (2.0 / k)


def eigenvalue_moduli(g: Graph, k: int, max_edges: int = 8) -> tuple:
    """All nonzero eigenvalue moduli of the k-power hypergraph, descending.

    Every eigenvalue satisfies lambda^k = sigma^2 for an eigenvalue sigma of
    a signed subgraph of g (induced subgraph when k = 3), so the moduli are
    |sigma|^(2/k) collected over subgraphs and switching classes,
    deduplicated within 1e-9.
    """
    if k < 3:
        raise PreconditionError("power hypergraphs need k >= 3")
    if not is_connected(g):
        raise PreconditionError("eigenvalue moduli require a connected graph")
    if g.m > max_edges:
        raise PreconditionError(f"modulus enumeration capped at {max_edges} edges")
    moduli = []
    for sub in _spectrum_subgraphs(g, induced=(k == 3)):
        for sg in switching_classes(sub):
            for sigma in spectrum(sg):
                if abs(sigma) > 1e-12:
                    moduli.append(abs(sigma) ** (2.0 / k))
    moduli.sort(reverse=True)
    out = []
    for x in moduli:
        if not out or out[-1] - x > MODULUS_MERGE_TOL:
            out.append(x)
    return tuple(out)


def _spectrum_subgraphs(g, induced):
    if not induced:
        for idxs in connected_edge_subsets(g, g.m):
            yield edge_subgraph(g, idxs)[0]
        return
    # connected induced subgraphs with an edge: the connected vertex sets of size >= 2
    neighbours = [sum(1 << w for w, _ in row) for row in adjacency_lists(g)]
    for mask in _connected_sets(neighbours, g.n):
        if mask & (mask - 1):
            idxs = [i for i, (u, v) in enumerate(g.edges) if mask >> u & 1 and mask >> v & 1]
            yield edge_subgraph(g, idxs)[0]


def am_spectral_radius(g: Graph, k: int) -> int:
    """Algebraic multiplicity of the power-hypergraph spectral radius: k^(m(k-3)+n-1)."""
    if k < 3:
        raise PreconditionError("power hypergraphs need k >= 3")
    if not is_connected(g):
        raise PreconditionError("radius multiplicity requires a connected graph")
    return k ** (g.m * (k - 3) + g.n - 1)


@dataclass
class EdgeContribution:
    """One weakest edge's share of the second-modulus eigendata.

    delta is 0 for pendant edges and 1 otherwise; variety_size counts the
    distinct eigenvectors whose support avoids this edge's cores; each such
    point carries point_multiplicity; contribution is their product.
    """

    delta: int
    variety_size: int
    point_multiplicity: int
    contribution: int


@dataclass
class MultiplicityReport:
    am_radius: int
    am_second: int
    variety_size: int
    per_edge: dict


def am_second_modulus(g: Graph, k: int) -> MultiplicityReport:
    """Algebraic multiplicity of the second-largest modulus, with per-edge breakdown.

    Each weakest edge e contributes
        k^(m(k-3) + n + 1 - k + delta) * (k-1)^(k-1-delta)  -  2^delta * k^(m(k-3)+n-1),
    factored here as (eigenvector count for e) * (per-point multiplicity);
    the factorisation identity is asserted.  Only k >= 4 is supported.
    """
    if k == 3:
        raise PreconditionError("k=3 multiplicity not provided by the method")
    if k < 3:
        raise PreconditionError("power hypergraphs need k >= 3")
    if not is_connected(g):
        raise PreconditionError("second-modulus multiplicity requires a connected graph")
    if g.m < 2:
        raise PreconditionError("second-modulus multiplicity needs at least two edges")

    am_r = am_spectral_radius(g, k)
    report = weakest_edges(g)
    per_edge = {}
    total = 0
    size_total = 0
    for e, delta in report.edges:
        expo = g.m * (k - 3) + g.n + 1 - k + delta
        if expo < 0:
            raise InternalInconsistencyError("negative multiplicity exponent")
        size = k**expo
        mult = origin_multiplicity(k, delta)
        contribution = size * mult
        direct = size * (k - 1) ** (k - 1 - delta) - 2**delta * am_r
        if contribution != direct:
            raise InternalInconsistencyError("per-edge multiplicity factorisation broke")
        per_edge[e] = EdgeContribution(delta, size, mult, contribution)
        total += contribution
        size_total += size
    return MultiplicityReport(
        am_radius=am_r,
        am_second=total,
        variety_size=size_total,
        per_edge=per_edge,
    )


def second_eigenvariety_count(g: Graph, k: int):
    """(distinct eigenvectors, total multiplicity) for the second-largest modulus."""
    rep = am_second_modulus(g, k)
    return rep.variety_size, rep.am_second


def spectral_moment(g: Graph, k: int, d: int) -> int:
    """d-th spectral moment of the k-power hypergraph, exactly.

    Zero unless k divides d.  Otherwise a sum over connected edge subsets F
    with |F| <= d/k of weight(F) * covering count of length 2d/k in F,
    where weight(F) = 2^(|F|-|V(F)|) (k-1)^(n-|V(F)|+(k-2)(m-|F|)) k^(|V(F)|+|F|(k-3)).
    The half-integer factor times the covering count is asserted integral.
    """
    if k < 3:
        raise PreconditionError("power hypergraphs need k >= 3")
    if d < 1:
        raise PreconditionError("moment order must be >= 1")
    if d % k:
        return 0
    fmax = min(d // k, g.m)
    if fmax > COVERING_EDGE_CAP:
        raise PreconditionError(
            f"moment subgraphs capped at {COVERING_EDGE_CAP} edges"
        )
    length = 2 * d // k
    total = 0
    for idxs in connected_edge_subsets(g, fmax):
        sub, _ = edge_subgraph(g, idxs)
        p = covering_parity_closed_walks(sub, length)
        if p == 0:
            continue
        ef, vf = sub.m, sub.n
        if ef >= vf:
            halves = p << (ef - vf)
        else:
            if p % 2:
                raise InternalInconsistencyError(
                    "odd covering count on a tree subgraph"
                )
            halves = p >> 1
        total += (
            halves
            * (k - 1) ** (g.n - vf + (k - 2) * (g.m - ef))
            * k ** (vf + ef * (k - 3))
        )
    return total


def _as_exact(x, tol=1e-9, max_den=10**6):
    fr = Fraction(x).limit_denominator(max_den)
    return fr if abs(fr - x) <= tol * max(1.0, abs(x)) else None


def am_second_from_moments(g: Graph, k: int, ell: int):
    """Estimate the second-modulus multiplicity from the kl-th spectral moment.

    (S_kl - k^(m(k-3)+n) * rho^2l) / rho_E^2l / k converges to the
    multiplicity as l grows; the top-modulus term is removed exactly.
    Squared radii are rationalised when they are rational to 1e-9, which
    makes the estimate exact whenever the remaining moduli vanish.
    """
    if k < 4:
        raise PreconditionError("the moment estimate targets k >= 4")
    if ell < 1:
        raise PreconditionError("ell must be >= 1")
    if not is_connected(g):
        raise PreconditionError("moment estimate requires a connected graph")
    if g.m < 2:
        raise PreconditionError("moment estimate needs at least two edges")
    s = spectral_moment(g, k, k * ell)
    top_count = k ** (g.m * (k - 3) + g.n)
    rho_sq = spectral_radius(g) ** 2
    second_sq = weakest_edges(g).rho ** 2
    exact_rho_sq, exact_second_sq = _as_exact(rho_sq), _as_exact(second_sq)
    if exact_rho_sq is not None and exact_second_sq is not None:
        return (Fraction(s) - top_count * exact_rho_sq**ell) / exact_second_sq**ell / k
    return (s - top_count * rho_sq**ell) / second_sq**ell / k


@dataclass
class Eigenpair:
    """Eigenvalue with an eigenvector over the power-hypergraph vertices."""

    value: float
    vector: tuple
    residual: float


def _tensor_apply(h: PowerHypergraph, x) -> list:
    """(A x^(k-1))_i for every vertex i: the sum over hyperedges at i of the
    product of the other coordinates, multiplied in hyperedge order."""
    out = []
    for i, hes in enumerate(_incidence(h)):
        acc = 0.0
        for he in hes:
            prod = 1.0
            for j in he:
                if j != i:
                    prod *= x[j]
            acc += prod
        out.append(acc)
    return out


def _check_residual_tol(tol) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(
            f"residual tolerance must be finite and non-negative, got {tol}"
        )


def eigen_residual(h: PowerHypergraph, value, vector) -> float:
    """max_i |(A x^(k-1))_i - value*x_i^(k-1)|."""
    if len(vector) != h.n_vertices:
        raise PreconditionError(
            f"vector length {len(vector)} != {h.n_vertices} vertices"
        )
    km1 = h.k - 1
    return max(abs(y - value * v**km1) for y, v in zip(_tensor_apply(h, vector), vector))


def verify_eigenpair(h: PowerHypergraph, pair: Eigenpair, tol: float = 1e-10):
    """Check both eigen-equation families; returns (ok, residual)."""
    _check_residual_tol(tol)
    r = eigen_residual(h, pair.value, pair.vector)
    return r <= tol, r


def lift_eigenvector(g: Graph, k: int, e) -> Eigenpair:
    """Eigenvector of the k-power hypergraph for the second-largest modulus,
    supported away from the given weakest edge.

    Construction: take the reduced graph (drop e, and its pendant endpoint
    when e is pendant), whose spectral radius beta equals the edge-deletion
    radius; lift its Perron vector y by x_u = y_u^(2/k) on kept originals,
    give all k-2 cores of each kept edge {a,b} the value sqrt(x_a*x_b/L)
    with L = beta^(2/k), and set zeros elsewhere.  Principal positive real
    roots are used throughout.
    """
    if k < 4:
        raise PreconditionError("eigenvector lifting needs k >= 4")
    if not is_connected(g):
        raise PreconditionError("eigenvector lifting requires a connected graph")
    if g.m < 2:
        raise PreconditionError("eigenvector lifting needs at least two edges")
    e = (min(e), max(e))
    report = weakest_edges(g)
    winners = dict(report.edges)
    if e not in winners:
        raise PreconditionError(f"({e[0]},{e[1]}) is not a weakest edge")
    delta = winners[e]

    reduced = delete_edge(g, e)
    if delta == 0:
        pendant = e[0] if g.degree(e[0]) == 1 else e[1]
        reduced, vmap = delete_vertex(reduced, pendant)
    else:
        vmap = {v: v for v in range(g.n)}
    if not is_connected(reduced):
        raise InternalInconsistencyError("reduced graph of a weakest edge is disconnected")

    beta, y = perron_pair(reduced)
    if abs(beta - report.rho) > 1e-9:
        raise InternalInconsistencyError("reduced-graph radius does not match the edge-deletion radius")

    h = build_power(g, k)
    lam = beta ** (2.0 / k)
    x = [0.0] * h.n_vertices
    for old, new in vmap.items():
        x[old] = y[new] ** (2.0 / k)
    for i, (a, b) in enumerate(g.edges):
        if (a, b) == e:
            continue
        core_value = math.sqrt(x[a] * x[b] / lam)
        for v in h.cores_of_edge(i):
            x[v] = core_value
    return Eigenpair(value=lam, vector=tuple(x), residual=eigen_residual(h, lam, x))
