"""Exact integer counting of parity-closed walks.

A parity-closed walk is a closed walk using every edge an even number of
times; the covering variant must also touch every edge at least once.
Counts come from dynamic programming over (vertex, per-edge parity bitmask)
states, in one table for all start vertices (the trace convention; a parity
mask fixes its walk's start), with arbitrary-precision integers.  DP state
is memoised per graph (at most CACHE_SIZE graphs, like every memo in the
package) and extended on demand, so longer queries reuse earlier steps.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import PreconditionError
from .graphs import (
    CACHE_SIZE,
    Graph,
    adjacency_lists,
    edge_subgraph,
    is_connected,
    signed_adjacency_matrix,
    switching_classes,
)
from .spectra import spectral_radius

PARITY_EDGE_CAP = 20
COVERING_EDGE_CAP = 10
SIGNED_EDGE_CAP = 12


class _WalkDP:
    """Parity DP over all starts in one table, optionally tracking the touched-edge mask.

    A parity mask is odd exactly at its walk's start and current vertex, or
    nowhere when they coincide, so no state mixes two starts.  Extension is
    locked, so one DP can serve concurrent queries.
    """

    def __init__(self, g, covering):
        self.covering = covering
        self.trans = adjacency_lists(g)
        self.full = (1 << g.m) - 1
        if covering:
            self.states = {(s, 0, 0): 1 for s in range(g.n)}
        else:
            self.states = {(s, 0): 1 for s in range(g.n)}
        self.counts = []
        self._lock = threading.Lock()

    def count(self, d):
        with self._lock:
            return self._extend(d)

    def _extend(self, d):
        # parity 0 gives every vertex even degree in the walk, so it is closed
        n = len(self.trans)
        while len(self.counts) < d:
            nxt = {}
            get = nxt.get
            if self.covering:
                for (v, parity, touched), c in self.states.items():
                    for w, ei in self.trans[v]:
                        bit = 1 << ei
                        key = (w, parity ^ bit, touched | bit)
                        nxt[key] = get(key, 0) + c
                total = sum(get((v, 0, self.full), 0) for v in range(n))
            else:
                for (v, parity), c in self.states.items():
                    for w, ei in self.trans[v]:
                        key = (w, parity ^ (1 << ei))
                        nxt[key] = get(key, 0) + c
                total = sum(get((v, 0), 0) for v in range(n))
            self.states = nxt
            self.counts.append(total)
        return self.counts[d - 1]


@lru_cache(maxsize=CACHE_SIZE)
def _walk_dp(g: Graph, covering: bool) -> _WalkDP:
    """The memoised DP of g.  The memo is thread-safe: lru_cache guards its
    own table and each DP's lock guards its extension."""
    return _WalkDP(g, covering)


def parity_closed_walks(g: Graph, d: int) -> int:
    """Closed walks of length d using every edge an even number of times."""
    if d < 1:
        raise PreconditionError("walk length must be >= 1")
    if g.m > PARITY_EDGE_CAP:
        raise PreconditionError(f"parity walk DP capped at {PARITY_EDGE_CAP} edges")
    if d % 2 or g.m == 0:
        return 0
    # a closed walk of length >= 1 never reaches an isolated vertex
    return _walk_dp(edge_subgraph(g, range(g.m))[0], False).count(d)


def covering_parity_closed_walks(g: Graph, d: int) -> int:
    """Parity-closed walks of length d that use every edge at least once."""
    if d < 1:
        raise PreconditionError("walk length must be >= 1")
    if not is_connected(g):
        raise PreconditionError("covering walks require a connected graph")
    if g.m > COVERING_EDGE_CAP:
        raise PreconditionError(f"covering walk DP capped at {COVERING_EDGE_CAP} edges")
    if d % 2 or d < 2 * g.m:
        return 0
    return _walk_dp(g, True).count(d)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _pow_trace(a, d):
    # left-to-right square and multiply, exact ints
    result = None
    for bit in bin(d)[2:]:
        result = a if result is None else _mat_mul(result, result)
        if bit == "1" and result is not a:
            result = _mat_mul(result, a)
    return sum(result[i][i] for i in range(len(a)))


def signed_moment_average(g: Graph, d: int) -> Fraction:
    """Average of trace(A^d) over all 2^m signings of g, exactly.

    A switching D A D leaves trace(A^d) unchanged, and every class of
    switching_classes has the same size, so the average over its
    representatives, each by integer matrix powers, is the average over all
    signings.  The result is an exact rational (integral whenever the
    parity-walk identity applies).
    """
    if d < 1:
        raise PreconditionError("moment order must be >= 1")
    if g.m > SIGNED_EDGE_CAP:
        raise PreconditionError(f"signing enumeration capped at {SIGNED_EDGE_CAP} edges")
    if g.m == 0:
        return Fraction(0)
    # isolated vertices add nothing to the trace nor to the class count
    traces = [
        _pow_trace(signed_adjacency_matrix(sg), d)
        for sg in switching_classes(edge_subgraph(g, range(g.m))[0])
    ]
    return Fraction(sum(traces), len(traces))


def walk_ratio_series(g: Graph, ell_max: int) -> list:
    """Prefix of covering-count ratios p(2*ell) / rho^(2*ell), ell = 1..ell_max.

    Convergence diagnostic: the sequence tends to 2^(n - m).  Ratios are
    returned as floats since the spectral radius is irrational in general;
    exact numerators come from covering_parity_closed_walks.
    """
    if not is_connected(g):
        raise PreconditionError("ratio series requires a connected graph")
    if g.m < 1:
        raise PreconditionError("ratio series needs at least one edge")
    if ell_max < 1:
        raise PreconditionError("ell_max must be >= 1")
    rho_sq = spectral_radius(g) ** 2
    out = []
    for ell in range(1, ell_max + 1):
        p = covering_parity_closed_walks(g, 2 * ell)
        out.append(p / rho_sq**ell)
    return out
