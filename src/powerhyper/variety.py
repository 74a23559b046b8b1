"""Closed-form solution of the local polynomial systems governing zero blocks
of second-modulus eigenvectors, with multiplicity bookkeeping.

The system has variables x_1..x_s (s = k-1-delta) and equations
mu * x_i^(k-1) = prod_{j != i} x_j.  Multiplying equation i by x_i shows
every nonzero solution has the same value s0 = mu * x_i^k = prod_j x_j, and
taking the product of all equations forces mu^s * s0^(k-s) = 1.  All
nonzero solutions are then coordinatewise k-th-root choices with a single
product constraint; the origin absorbs the rest of the Bezout total
(k-1)^s, since the homogenised system has no solutions at infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

from .errors import InternalInconsistencyError, PreconditionError

SOLUTION_TOL = 1e-12


@dataclass(frozen=True)
class LinkSystem:
    """mu * x_i^(k-1) = x^(S\\{i}) over s = k-1-delta variables."""

    k: int
    delta: int
    mu: complex

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise PreconditionError("delta must be 0 or 1")
        if not 3 <= self.k <= 9:
            raise PreconditionError("k must be between 3 and 9")
        if self.size < 2:
            raise PreconditionError("need at least two variables (k-1-delta >= 2)")
        if self.mu == 0:
            raise PreconditionError("mu must be nonzero")
        object.__setattr__(self, "mu", complex(self.mu))

    @property
    def size(self) -> int:
        return self.k - 1 - self.delta


@dataclass
class VarietyReport:
    nonzero_solutions: tuple
    nonzero_total: int
    origin_multiplicity: int
    bezout: int


def bezout_total(k: int, delta: int) -> int:
    return (k - 1) ** (k - 1 - delta)


def nonzero_solution_count(k: int, delta: int) -> int:
    """k^(k-2) when delta = 0, else 2*k^(k-3)."""
    return k ** (k - 2) if delta == 0 else 2 * k ** (k - 3)


def origin_multiplicity(k: int, delta: int) -> int:
    """Multiplicity of the origin: the Bezout total minus the nonzero count.

    Closed forms: (k-1)^(k-1) - k^(k-2) for delta = 0 and
    (k-1)^(k-2) - 2*k^(k-3) for delta = 1.
    """
    return bezout_total(k, delta) - nonzero_solution_count(k, delta)


def _products_of_others(p) -> list:
    """[prod_{j != i} p_j for each i], from prefix and suffix products in O(s)."""
    out = []
    acc = 1.0 + 0.0j
    for v in p:
        out.append(acc)
        acc *= v
    acc = 1.0 + 0.0j
    for i in range(len(p) - 1, -1, -1):
        out[i] *= acc
        acc *= p[i]
    return out


def system_residual(sys: LinkSystem, p) -> float:
    if len(p) != sys.size:
        raise PreconditionError("solution length does not match the system")
    km1 = sys.k - 1
    return max(abs(sys.mu * v**km1 - rest) for v, rest in zip(p, _products_of_others(p)))


def solve_link_variety(sys: LinkSystem) -> VarietyReport:
    """Enumerate all nonzero solutions in closed form and verify each.

    Every nonzero solution has mu * p_i^k equal to a common value s0; the
    consistency constraint pins s0 to mu^(1-k) (delta = 0) or to +-xi with
    xi the principal square root of mu^(2-k) (delta = 1).  Coordinates are
    then a fixed k-th root times free k-th roots of unity, with the last
    coordinate forced by the product constraint.
    """
    k, s, mu = sys.k, sys.size, sys.mu
    roots = tuple(cmath.exp(2j * math.pi * t / k) for t in range(k))
    solutions = []

    def family(base, phase_offset):
        # base^k = s0/mu already; phases sum to phase_offset mod k
        for a in product(range(k), repeat=s - 1):
            last = (phase_offset - sum(a)) % k
            yield tuple(base * roots[t] for t in (*a, last))

    if sys.delta == 0:
        # s0 = mu^(1-k); pick base = 1/mu so the product constraint reads
        # base^s * omega^(sum) = s0, i.e. omega^(sum) = 1
        solutions.extend(family(1.0 / mu, 0))
    else:
        xi = cmath.sqrt(mu ** (2 - k))
        for sign in (1, -1):
            s0 = sign * xi
            base = (s0 / mu) ** (1.0 / k)
            target = s0 / base**s
            offset = round(cmath.phase(target) * k / (2 * math.pi)) % k
            if abs(roots[offset] - target) > 1e-9:
                raise InternalInconsistencyError("product constraint is not a k-th root of unity")
            solutions.extend(family(base, offset))

    for p in solutions:
        if system_residual(sys, p) > SOLUTION_TOL:
            raise InternalInconsistencyError("constructed solution fails the system")

    bez = bezout_total(k, sys.delta)
    report = VarietyReport(
        nonzero_solutions=tuple(solutions),
        nonzero_total=len(solutions),
        origin_multiplicity=bez - len(solutions),
        bezout=bez,
    )
    if report.nonzero_total != nonzero_solution_count(k, sys.delta):
        raise InternalInconsistencyError("nonzero solution count misses the closed form")
    return report


def jacobian_nonsingular(sys: LinkSystem, p) -> bool:
    """Strict diagonal dominance of the Jacobian at a solution p.

    Diagonal entries are (k-1)*mu*p_i^(k-2), off-diagonal ones
    -x^(S\\{i,j}); dominance in modulus is sufficient for nonsingularity,
    hence multiplicity one.  The origin always fails.
    """
    p = tuple(complex(v) for v in p)
    if system_residual(sys, p) > 1e-9:
        raise PreconditionError("p does not solve the system")
    for i, v in enumerate(p):
        diag = abs((sys.k - 1) * sys.mu * v ** (sys.k - 2))
        off = sum(map(abs, _products_of_others(p[:i] + p[i + 1 :])))
        if diag <= off:
            return False
    return True
