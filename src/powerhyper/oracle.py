"""Independent numeric verification: spectral-radius power iteration on the
adjacency tensor, and brute-force phase enumeration of second-modulus
eigenvectors at tiny sizes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

from .errors import ConvergenceError, PreconditionError
from .graphs import Graph, is_connected
from .power import (
    PowerHypergraph,
    _check_residual_tol,
    _tensor_apply,
    eigen_residual,
    lift_eigenvector,
)
from .spectra import weakest_edges

BRUTE_VERTEX_CAP = 12
BRUTE_PHASE_CAP = 10**6


@dataclass
class IterationTrace:
    """Per-iteration (lower, upper) radius bounds plus the converged value."""

    bounds: tuple
    converged_value: float
    iterations: int


def power_iteration_radius(
    h: PowerHypergraph, tol: float = 1e-8, max_iter: int = 10000
) -> IterationTrace:
    """Nonnegative-tensor power iteration with min/max ratio bounds.

    From the all-ones start, iterate x <- normalize((A x^(k-1))^(1/(k-1)));
    at every step min_i and max_i of (A x^(k-1))_i / x_i^(k-1) sandwich the
    spectral radius, and the gap shrinks monotonically.  Stops when the gap
    drops below tol.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    if not is_connected(h.base):
        raise PreconditionError("power iteration requires a connected hypergraph")
    km1 = h.k - 1
    x = [1.0] * h.n_vertices
    bounds = []
    for it in range(1, max_iter + 1):
        y = _tensor_apply(h, x)
        ratios = [a / b**km1 for a, b in zip(y, x)]
        lo, hi = min(ratios), max(ratios)
        bounds.append((lo, hi))
        if hi - lo < tol:
            return IterationTrace(tuple(bounds), 0.5 * (lo + hi), it)
        x = [v ** (1.0 / km1) for v in y]
        top = max(x)
        x = [v / top for v in x]
    raise ConvergenceError(f"power iteration gap still above {tol} after {max_iter} iterations")


def projective_representative(vector, tol: float = 1e-12) -> tuple:
    """Deterministic projective canonical form of a complex vector.

    Scaled so the first nonzero coordinate is positive real and the moduli
    sum to 1; vectors equal up to a nonzero scalar map to the same output.
    """
    first = None
    for v in vector:
        if abs(v) > tol:
            first = v
            break
    if first is None:
        raise PreconditionError("cannot canonicalise the zero vector")
    phase = first / abs(first)
    total = sum(abs(v) for v in vector)
    scale = phase * total
    return tuple(complex(v) / scale for v in vector)


def _projective_key(vector):
    rep = projective_representative(vector)
    return tuple((round(z.real, 8), round(z.imag, 8)) for z in rep)


def brute_count_second_eigenvectors(g: Graph, k: int, tol: float = 1e-8) -> int:
    """Count projective second-modulus eigenvectors by phase enumeration.

    Starting from each lifted eigenvector, every coordinatewise
    multiplication by k-th roots of unity is tested against the
    eigen-equations and the survivors are deduplicated projectively.
    Tiny instances only: the patterns of all weakest edges together are
    capped at BRUTE_PHASE_CAP, checked before the first residual.
    """
    _check_residual_tol(tol)
    h = PowerHypergraph(k, g)
    if h.n_vertices > BRUTE_VERTEX_CAP:
        raise PreconditionError(f"brute force capped at {BRUTE_VERTEX_CAP} vertices")
    pairs = [lift_eigenvector(g, k, e) for e, _delta in weakest_edges(g).edges]
    supports = [[i for i, v in enumerate(pair.vector) if v != 0.0] for pair in pairs]
    if sum(k ** (len(support) - 1) for support in supports) > BRUTE_PHASE_CAP:
        raise PreconditionError("phase enumeration exceeds the 10^6 cap")
    roots = tuple(cmath.exp(2j * math.pi * t / k) for t in range(k))
    found = set()
    for pair, support in zip(pairs, supports):
        base = [complex(v) for v in pair.vector]
        for phases in product(range(k), repeat=len(support) - 1):
            x = list(base)
            for idx, t in zip(support[1:], phases):
                x[idx] = base[idx] * roots[t]
            if eigen_residual(h, pair.value, x) <= tol:
                found.add(_projective_key(x))
    return len(found)
