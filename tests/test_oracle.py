import random

import pytest

from powerhyper import (
    PreconditionError,
    brute_count_second_eigenvectors,
    build_power,
    power_iteration_radius,
    power_spectral_radius,
    projective_representative,
)

from _corpus import C4, K2, K3, K4, P3, connected_graphs


def test_single_edge_converges_immediately():
    trace = power_iteration_radius(build_power(K2, 4), tol=1e-10)
    assert abs(trace.converged_value - 1.0) < 1e-10
    assert trace.iterations == 1


def test_path_and_triangle_values():
    t1 = power_iteration_radius(build_power(P3, 4), tol=1e-9)
    assert abs(t1.converged_value - 2 ** 0.25) < 1e-7
    t2 = power_iteration_radius(build_power(K3, 3), tol=1e-9)
    assert abs(t2.converged_value - 2 ** (2 / 3)) < 1e-7


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_power_iteration_rejects_bad_tol(tol):
    with pytest.raises(PreconditionError, match="finite and positive"):
        power_iteration_radius(build_power(P3, 4), tol=tol)


def test_bounds_sandwich_and_narrow():
    trace = power_iteration_radius(build_power(K3, 4), tol=1e-9)
    lows = [b[0] for b in trace.bounds]
    highs = [b[1] for b in trace.bounds]
    for lo, hi in trace.bounds:
        assert lo <= trace.converged_value + 1e-9
        assert hi >= trace.converged_value - 1e-9
    assert all(a <= b + 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(highs, highs[1:]))


def test_oracle_agrees_with_closed_form():
    for g in connected_graphs(5):
        for k in (3, 4, 5):
            trace = power_iteration_radius(build_power(g, k), tol=1e-8)
            assert abs(trace.converged_value - power_spectral_radius(g, k)) < 1e-6


def test_brute_force_counts():
    assert brute_count_second_eigenvectors(P3, 4) == 32


def test_brute_force_matches_variety_size():
    # phase enumeration finds exactly the counted distinct eigenvectors
    from powerhyper import second_eigenvariety_count

    for g in (P3, K3):
        assert brute_count_second_eigenvectors(g, 4) == second_eigenvariety_count(g, 4)[0]


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_brute_force_rejects_bad_tol(tol):
    with pytest.raises(PreconditionError, match="finite and non-negative"):
        brute_count_second_eigenvectors(P3, 4, tol=tol)


def test_brute_force_preconditions():
    with pytest.raises(PreconditionError):
        brute_count_second_eigenvectors(K2, 4)  # no second modulus
    with pytest.raises(PreconditionError):
        brute_count_second_eigenvectors(K4, 4)  # 16 vertices > cap


def test_projective_representative_idempotent_under_scaling():
    rng = random.Random(7)
    vec = (0.0, 1.0, 0.5 + 0.25j, -2.0, 0.0, 1j)
    base = projective_representative(vec)
    for _ in range(25):
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(c) < 1e-3:
            continue
        scaled = tuple(c * v for v in vec)
        again = projective_representative(scaled)
        assert max(abs(a - b) for a, b in zip(base, again)) < 1e-12


def test_projective_representative_shape():
    rep = projective_representative((2j, 2j, 0.0))
    assert abs(sum(abs(z) for z in rep) - 1.0) < 1e-12
    assert abs(rep[0].imag) < 1e-15 and rep[0].real > 0
    with pytest.raises(PreconditionError):
        projective_representative((0.0, 0.0))


@pytest.mark.parametrize("g, k", [(C4, 4), (K3, 5)], ids=["C4-k4", "K3-k5"])
def test_brute_force_cap_bounds_total_work(g, k, monkeypatch):
    # C4 at k = 4 needs 4 x 4^9 = 1,048,576 patterns and K3 at k = 5 needs
    # 3 x 5^8 = 1,171,875: each edge alone is under the 10^6 cap, the total
    # is not, and it is refused before the first residual
    from powerhyper import oracle

    def no_residual(*args):
        raise AssertionError("residual evaluated before the cap check")

    monkeypatch.setattr(oracle, "eigen_residual", no_residual)
    with pytest.raises(PreconditionError, match="10\\^6 cap"):
        brute_count_second_eigenvectors(g, k)
