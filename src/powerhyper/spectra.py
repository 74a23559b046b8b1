"""Dense symmetric eigensolver and every signed/unsigned spectral quantity:
spectral radii, deletion radii, weakest edges, and switching-class extremes.

The eigensolver reduces the matrix to tridiagonal form with Householder
reflections, then diagonalises the tridiagonal matrix by implicit-shift QL
(Golub & Van Loan, *Matrix Computations*, ch. 8; EISPACK tred2/tql2).  The
orthogonal factor is accumulated only when eigenvectors are asked for.  An
off-diagonal entry is taken as zero once adding it to the running norm
estimate leaves that estimate unchanged; each remaining 2x2 block is solved
in closed form (as LAPACK dlaev2 does), so that, for example, K2 gets the
radius 1.0 exactly.  Each eigenvalue may take at most 30 QL iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import ConvergenceError, InternalInconsistencyError, PreconditionError
from .graphs import (
    CACHE_SIZE,
    Graph,
    SignedGraph,
    _gauge,
    adjacency_matrix,
    delete_edge,
    delete_vertex,
    is_connected,
    signed_adjacency_matrix,
    switching_classes,
)

SYMMETRY_TOL = 1e-12
MAX_QL_ITERATIONS = 30
TIE_TOL = 1e-9


def _tridiagonalize(a):
    """Householder reduction of the symmetric list-of-rows matrix a.

    Returns the diagonal d, the off-diagonal e (e[i] couples i and i+1) and
    the reflectors (u, h) of the steps i = n-1, ..., 2 that need one, each
    acting as I - u u^T / h on the leading i coordinates.
    """
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    reflectors = []
    for i in range(n - 1, 0, -1):
        row = a[i]
        d[i] = row[i]
        alpha = row[i - 1]
        xnorm = math.hypot(*row[: i - 1])
        if xnorm == 0.0:
            e[i - 1] = alpha
            continue
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        e[i - 1] = beta
        u = row[:i]
        u[-1] = alpha - beta
        h = beta * (beta - alpha)
        block = a[:i]
        p = [sum(map(mul, r, u)) / h for r in block]
        half_k = sum(map(mul, u, p)) / (h + h)
        q = [pj - half_k * uj for pj, uj in zip(p, u)]
        a = [
            [x - uj * qk - qj * uk for x, uk, qk in zip(r, u, q)]
            for r, uj, qj in zip(block, u, q)
        ]
        reflectors.append((u, h))
    d[0] = a[0][0]
    return d, e, reflectors


def _eig2(a, b, c):
    """Eigen-decomposition of [[a, b], [b, c]] in closed form (LAPACK dlaev2).

    Returns (rt1, rt2, cs, sn) with |rt1| >= |rt2| and (cs, sn) the unit
    eigenvector of rt1; (-sn, cs) is the eigenvector of rt2.
    """
    sm = a + c
    df = a - c
    adf = abs(df)
    tb = b + b
    ab = abs(tb)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        rt = adf * math.sqrt(1.0 + (ab / adf) ** 2)
    elif adf < ab:
        rt = ab * math.sqrt(1.0 + (adf / ab) ** 2)
    else:
        rt = ab * math.sqrt(2.0)
    if sm < 0.0:
        rt1 = 0.5 * (sm - rt)
        sgn1 = -1
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    elif sm > 0.0:
        rt1 = 0.5 * (sm + rt)
        sgn1 = 1
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    else:
        rt1 = 0.5 * rt
        rt2 = -0.5 * rt
        sgn1 = 1
    if df >= 0.0:
        cs = df + rt
        sgn2 = 1
    else:
        cs = df - rt
        sgn2 = -1
    if abs(cs) > ab:
        ct = -tb / cs
        sn1 = 1.0 / math.sqrt(1.0 + ct * ct)
        cs1 = ct * sn1
    elif ab == 0.0:
        cs1, sn1 = 1.0, 0.0
    else:
        tn = -cs / tb
        cs1 = 1.0 / math.sqrt(1.0 + tn * tn)
        sn1 = tn * cs1
    if sgn1 == sgn2:
        cs1, sn1 = -sn1, cs1
    return rt1, rt2, cs1, sn1


def _ql(d, e, z):
    """Implicit-shift QL on the tridiagonal (d, e), in place.

    d ends as the eigenvalues.  When z is not None its rows (the columns of
    the accumulated transform) are rotated along and end as eigenvectors.
    """
    n = len(d)
    tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        iterations = 0
        while True:
            m = l
            while m < n - 1 and tst1 + abs(e[m]) != tst1:
                m += 1
            if m == l:
                break
            if m == l + 1:
                rt1, rt2, cs, sn = _eig2(d[l], e[l], d[l + 1])
                d[l], d[l + 1] = rt1, rt2
                e[l] = 0.0
                if z is not None:
                    zl, zr = z[l], z[l + 1]
                    z[l] = [cs * x + sn * y for x, y in zip(zl, zr)]
                    z[l + 1] = [cs * y - sn * x for x, y in zip(zl, zr)]
                break
            if iterations == MAX_QL_ITERATIONS:
                raise ConvergenceError(
                    f"QL iteration did not converge in {MAX_QL_ITERATIONS} steps"
                )
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    zi, zj = z[i], z[i + 1]
                    z[i + 1] = [s * x + c * y for x, y in zip(zi, zj)]
                    z[i] = [c * x - s * y for x, y in zip(zi, zj)]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def _eigh(matrix, want_vectors=False):
    """Eigenvalues (unsorted) of a real symmetric matrix, and, when
    want_vectors is set, v with the matching unit eigenvectors as columns."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix must be square")
    a = [[float(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > SYMMETRY_TOL:
                raise PreconditionError(f"matrix not symmetric at ({i},{j})")
    if n == 0:
        return [], ([] if want_vectors else None)
    d, e, reflectors = _tridiagonalize(a)
    z = None
    if want_vectors:
        # z = P_2 ... P_(n-1) = Q^T for the step-i reflectors P_i, so its
        # rows are the columns of Q in A = Q T Q^T
        z = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        for u, h in reversed(reflectors):
            i = len(u)
            for r in z[:i]:
                g = sum(map(mul, r, u)) / h
                r[:i] = [x - g * y for x, y in zip(r, u)]
    _ql(d, e, z)
    v = [list(col) for col in zip(*z)] if want_vectors else None
    return d, v


def sym_eig(matrix):
    """Eigenvalues of a real symmetric matrix, sorted ascending."""
    vals, _ = _eigh(matrix)
    return tuple(sorted(vals))


def sym_eig_vectors(matrix):
    """Eigenvalues ascending plus matching unit eigenvectors (as row tuples)."""
    vals, v = _eigh(matrix, want_vectors=True)
    n = len(vals)
    order = sorted(range(n), key=lambda i: vals[i])
    vectors = tuple(tuple(v[i][j] for i in range(n)) for j in order)
    return tuple(vals[j] for j in order), vectors


@lru_cache(maxsize=CACHE_SIZE)
def spectrum(obj):
    """Adjacency spectrum of a Graph or SignedGraph, ascending."""
    if isinstance(obj, SignedGraph):
        return sym_eig(signed_adjacency_matrix(obj))
    return sym_eig(adjacency_matrix(obj))


def spectral_radius(obj) -> float:
    """max(|lambda_1|, |lambda_n|); disconnected inputs give the max over components."""
    vals = spectrum(obj)
    return max(abs(vals[0]), abs(vals[-1]))


def lambda_max(obj) -> float:
    return spectrum(obj)[-1]


def lambda_min(obj) -> float:
    return spectrum(obj)[0]


def lambda_second(obj) -> float:
    vals = spectrum(obj)
    if len(vals) < 2:
        raise PreconditionError("second-largest eigenvalue needs n >= 2")
    return vals[-2]


def rho_vertex_deleted(g: Graph) -> float:
    """Largest spectral radius over all single-vertex deletions."""
    if not is_connected(g):
        raise PreconditionError("vertex-deletion radius requires a connected graph")
    if g.n < 2:
        raise PreconditionError("vertex-deletion radius needs n >= 2")
    return max(spectral_radius(delete_vertex(g, v)[0]) for v in range(g.n))


@dataclass
class WeakestEdgeReport:
    """Edges whose removal lowers the spectral radius the least.

    rho is max_e spectral_radius(g - e); edges lists every (edge, delta)
    attaining it within the tie tolerance, delta = 0 for pendant edges and
    1 otherwise; rho_per_edge records spectral_radius(g - e) for all edges.
    """

    rho: float
    edges: tuple
    rho_per_edge: dict

    @property
    def n_pendant(self) -> int:
        return sum(1 for _, d in self.edges if d == 0)

    @property
    def n_internal(self) -> int:
        return sum(1 for _, d in self.edges if d == 1)


def weakest_edges(g: Graph, tie_tol: float = TIE_TOL) -> WeakestEdgeReport:
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise PreconditionError(f"tie tolerance must be finite and non-negative, got {tie_tol}")
    if not is_connected(g):
        raise PreconditionError("weakest edges require a connected graph")
    if g.m < 2:
        raise PreconditionError("weakest edges need at least two edges")
    per_edge = {e: spectral_radius(delete_edge(g, e)) for e in g.edges}
    top = max(per_edge.values())
    winners = tuple(
        (e, 0 if min(g.degree(e[0]), g.degree(e[1])) == 1 else 1)
        for e in g.edges
        if per_edge[e] >= top - tie_tol
    )
    return WeakestEdgeReport(rho=top, edges=winners, rho_per_edge=per_edge)


def rho_unbalanced(g: Graph):
    """Largest spectral radius among switching classes strictly below spectral_radius(g).

    Classes attaining the graph radius are exactly the balanced and the
    antibalanced class: in the gauge of switching_classes, the all-positive
    signing and the all-negative one's representative.  That agreement is
    asserted.  Returns None when every class attains it (trees and
    odd-unicyclic graphs).
    """
    if not is_connected(g):
        raise PreconditionError("switching-class radius requires a connected graph")
    rho = spectral_radius(g)
    extremal = {(1,) * g.m, _gauge(g, (-1,) * g.m)[1]}
    best = None
    for sg in switching_classes(g):
        r = spectral_radius(sg)
        attains = r >= rho - TIE_TOL
        if attains != (sg.signs in extremal):
            raise InternalInconsistencyError(
                "numeric radius comparison disagrees with the balance test"
            )
        if not attains and (best is None or r > best):
            best = r
    return best


def perron_pair(g: Graph):
    """Spectral radius of a connected graph with its positive eigenvector.

    The vector is scaled so its largest entry is 1.
    """
    if not is_connected(g):
        raise PreconditionError("Perron pair requires a connected graph")
    vals, vecs = sym_eig_vectors(adjacency_matrix(g))
    rho = vals[-1]
    vec = list(vecs[-1])
    top = max(vec, key=abs)
    if top < 0:
        vec = [-x for x in vec]
    if g.n > 1 and min(vec) <= 0.0:
        raise InternalInconsistencyError("Perron vector of a connected graph must be positive")
    scale = max(vec)
    return rho, tuple(x / scale for x in vec)
