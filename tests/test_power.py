import math
from fractions import Fraction

import pytest

from powerhyper import (
    Eigenpair,
    PreconditionError,
    am_second_from_moments,
    am_second_modulus,
    am_spectral_radius,
    build_power,
    eigen_residual,
    eigenvalue_moduli,
    lift_eigenvector,
    power_spectral_radius,
    second_eigenvariety_count,
    second_largest_modulus,
    second_modulus_candidates,
    spectral_moment,
    verify_eigenpair,
    weakest_edges,
)

from powerhyper import power
from powerhyper.graphs import edge_subgraph, is_connected
from powerhyper.power import _spectrum_subgraphs

from _corpus import C4, K2, K3, K4, P3, P4, connected_graphs, edges_span_connected

SQRT2 = math.sqrt(2.0)


def test_build_power_shapes():
    h = build_power(P3, 4)
    assert h.n_vertices == 7
    assert h.hyperedges() == ((0, 1, 3, 4), (1, 2, 5, 6))
    assert build_power(K3, 3).n_vertices == 6
    assert len(build_power(K3, 3).hyperedges()) == 3
    assert build_power(K2, 5).n_vertices == 5
    with pytest.raises(PreconditionError):
        build_power(P3, 2)


def test_core_ownership():
    h = build_power(P3, 4)
    assert h.cores_of_edge(0) == (3, 4)
    assert h.cores_of_edge(1) == (5, 6)
    assert h.owner_edge(5) == 1 and h.owner_edge(2) is None


def test_power_spectral_radius():
    for k in (3, 4, 5):
        assert abs(power_spectral_radius(K2, k) - 1.0) < 1e-12
    assert abs(power_spectral_radius(P3, 4) - 2 ** 0.25) < 1e-9
    assert abs(power_spectral_radius(K3, 4) - SQRT2) < 1e-9


def test_second_largest_modulus_k4():
    assert abs(second_largest_modulus(P3, 4) - 1.0) < 1e-9
    golden = (1 + math.sqrt(5.0)) / 2
    assert abs(second_largest_modulus(C4, 4) - math.sqrt(golden)) < 1e-9


def test_second_largest_modulus_k3():
    assert abs(second_largest_modulus(K3, 3) - 1.0) < 1e-9
    assert abs(second_largest_modulus(C4, 3) - 2 ** (1 / 3)) < 1e-9
    cands = second_modulus_candidates(C4, 3)
    assert set(cands) == {"rho_vertex_deleted", "rho_unbalanced"}
    assert abs(cands["rho_vertex_deleted"] - SQRT2) < 1e-9
    assert abs(cands["rho_unbalanced"] - SQRT2) < 1e-9


def test_second_largest_modulus_preconditions():
    with pytest.raises(PreconditionError):
        second_largest_modulus(K2, 4)
    with pytest.raises(PreconditionError):
        second_largest_modulus(P3, 2)


def test_eigenvalue_moduli_examples():
    got = eigenvalue_moduli(P3, 4)
    assert got == pytest.approx((2 ** 0.25, 1.0), abs=1e-9)
    assert eigenvalue_moduli(K2, 4) == pytest.approx((1.0,), abs=1e-12)
    assert eigenvalue_moduli(K3, 4) == pytest.approx((SQRT2, 2 ** 0.25, 1.0), abs=1e-9)


def _mask_scan_subgraphs(g, induced):
    # brute-force reference: scan every vertex mask (induced) or edge mask
    if induced:
        for mask in range(1, 1 << g.n):
            idxs = [i for i, (u, v) in enumerate(g.edges) if mask >> u & 1 and mask >> v & 1]
            if not idxs:
                continue
            sub, _ = edge_subgraph(g, idxs)
            if sub.n == bin(mask).count("1") and is_connected(sub):
                yield sub
    else:
        for mask in range(1, 1 << g.m):
            idxs = [i for i in range(g.m) if mask >> i & 1]
            if edges_span_connected(g, idxs):
                yield edge_subgraph(g, idxs)[0]


def test_eigenvalue_moduli_match_mask_scan(monkeypatch):
    graphs = connected_graphs(6, max_edges=8)
    for g in graphs:
        for induced in (True, False):
            assert list(_spectrum_subgraphs(g, induced)) == list(_mask_scan_subgraphs(g, induced))
    got = {(g, k): eigenvalue_moduli(g, k) for g in graphs for k in (3, 4)}
    monkeypatch.setattr(power, "_spectrum_subgraphs", _mask_scan_subgraphs)
    for (g, k), moduli in got.items():
        assert eigenvalue_moduli(g, k) == moduli


def test_moduli_identity_with_radius_and_second():
    # largest modulus is the power radius, runner-up is the second modulus
    for g in connected_graphs(6, max_edges=5, min_edges=2):
        for k in (4, 5):
            moduli = eigenvalue_moduli(g, k)
            assert abs(moduli[0] - power_spectral_radius(g, k)) < 1e-9
            assert abs(moduli[1] - second_largest_modulus(g, k)) < 1e-9


def test_am_spectral_radius_examples():
    assert am_spectral_radius(K2, 4) == 16
    assert am_spectral_radius(P3, 4) == 256
    assert am_spectral_radius(K3, 3) == 9


def test_am_second_modulus_path():
    rep = am_second_modulus(P3, 4)
    assert rep.am_second == 352
    assert rep.am_radius == 256
    assert rep.variety_size == 32 and rep.am_second == 352
    for ec in rep.per_edge.values():
        assert (ec.delta, ec.variety_size, ec.point_multiplicity, ec.contribution) == (
            0,
            16,
            11,
            176,
        )


def test_am_second_modulus_triangle_and_cycle():
    rep = am_second_modulus(K3, 4)
    assert rep.am_second == 768
    assert all(ec.contribution == 256 and ec.delta == 1 for ec in rep.per_edge.values())
    rep4 = am_second_modulus(C4, 4)
    assert rep4.am_second == 16384
    assert all(ec.contribution == 4096 for ec in rep4.per_edge.values())


def test_am_second_modulus_preconditions():
    with pytest.raises(PreconditionError, match="k=3 multiplicity not provided"):
        am_second_modulus(P3, 3)
    with pytest.raises(PreconditionError):
        am_second_modulus(K2, 4)


def test_spectral_moment_examples():
    assert spectral_moment(K2, 4, 4) == 64  # k^(k-1)
    assert spectral_moment(P3, 4, 8) == 5504
    for d in (1, 2, 3, 5, 6, 7, 9, 10, 11):
        assert spectral_moment(P3, 4, d) == 0
        assert spectral_moment(K3, 4, d) == 0


def test_spectral_moment_trace_identity():
    # Cooper-Dutle: Tr_k(A) = k^(k-1) (k-1)^(N-k) |E| for a k-uniform
    # hypergraph on N vertices; G^(k) has N = n + (k-2) m and |E| = m.
    for g in connected_graphs(5):
        for k in (3, 4, 5):
            n_vertices = g.n + (k - 2) * g.m
            want = k ** (k - 1) * (k - 1) ** (n_vertices - k) * g.m
            assert spectral_moment(g, k, k) == want, (g.edges, k)


def test_moment_estimate_exact_for_path():
    for ell in range(1, 9):
        assert am_second_from_moments(P3, 4, ell) == 352


def test_moment_estimate_preconditions():
    with pytest.raises(PreconditionError):
        am_second_from_moments(K2, 4, 3)


def test_eigenvariety_counts():
    assert second_eigenvariety_count(P3, 4) == (32, 352)
    assert second_eigenvariety_count(K3, 4) == (768, 768)
    assert second_eigenvariety_count(C4, 4) == (16384, 16384)


def test_count_consistency_sweep():
    for g in connected_graphs(6, max_edges=6, min_edges=2):
        for k in (4, 5, 6):
            size, total = second_eigenvariety_count(g, k)
            assert total == am_second_modulus(g, k).am_second
            assert 0 < size <= total


def test_lift_path_pendant_edge():
    pair = lift_eigenvector(P3, 4, (0, 1))
    assert abs(pair.value - 1.0) < 1e-12
    assert pair.residual <= 1e-12
    assert pair.vector == (0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)


def test_lift_triangle():
    pair = lift_eigenvector(K3, 4, (0, 1))
    assert abs(pair.value - 2 ** 0.25) < 1e-12
    assert pair.residual <= 1e-12
    h = build_power(K3, 4)
    zeros = {i for i, v in enumerate(pair.vector) if v == 0.0}
    assert zeros == set(h.cores_of_edge(0))
    # kept originals follow the Perron vector of the remaining path
    assert abs(pair.vector[2] - 1.0) < 1e-12
    assert abs(pair.vector[0] - 2 ** -0.25) < 1e-10
    assert abs(pair.vector[1] - 2 ** -0.25) < 1e-10


def test_lift_rejects_non_weakest_edge():
    # middle edge of P4 is not weakest (its removal kills the radius most)
    with pytest.raises(PreconditionError, match="not a weakest edge"):
        lift_eigenvector(P4, 4, (1, 2))


def test_lifted_pairs_verify_small_sweep():
    for g in (P3, K3, C4, P4, K4):
        for k in (4, 5):
            h = build_power(g, k)
            for e, delta in weakest_edges(g).edges:
                pair = lift_eigenvector(g, k, e)
                ok, res = verify_eigenpair(h, pair, tol=1e-10)
                assert ok and res <= 1e-10
                expected_zero = set(h.cores_of_edge(g.edge_index(e)))
                if delta == 0:
                    u, v = e
                    expected_zero.add(u if g.degree(u) == 1 else v)
                assert {i for i, x in enumerate(pair.vector) if x == 0.0} == expected_zero


def test_verify_eigenpair_examples():
    h = build_power(K2, 4)
    ones = Eigenpair(1.0, (1.0,) * 4, 0.0)
    ok, res = verify_eigenpair(h, ones)
    assert ok and res == 0.0
    bad = Eigenpair(2.0, (1.0,) * 4, 0.0)
    ok2, res2 = verify_eigenpair(h, bad)
    assert not ok2 and abs(res2 - 1.0) < 1e-12
    with pytest.raises(PreconditionError):
        eigen_residual(h, 1.0, (1.0, 1.0))


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_verify_eigenpair_rejects_bad_tol(tol):
    h = build_power(P3, 4)
    pair = lift_eigenvector(P3, 4, (0, 1))
    with pytest.raises(PreconditionError, match="finite and non-negative"):
        verify_eigenpair(h, pair, tol=tol)
    assert verify_eigenpair(h, pair, tol=0.0) == (True, 0.0)


def _rationalize(x):
    fr = Fraction(x).limit_denominator(10**6)
    assert abs(fr - x) <= 1e-9 * max(1.0, abs(x))
    return fr


def _solve_exact(rows, rhs):
    # Gaussian elimination over Fractions
    n = len(rows)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def test_moment_fit_recovers_multiplicities():
    """S at lengths k*l is an integer combination over the modulus set, with
    k*am at the top modulus and k*am_second at the runner-up."""
    k = 4
    for g in connected_graphs(5, max_edges=4, min_edges=2):
        moduli = eigenvalue_moduli(g, k)
        t = [_rationalize(m**k) for m in moduli]
        count = len(t)
        moments = [spectral_moment(g, k, k * ell) for ell in range(1, count + 4)]
        rows = [[tj**ell for tj in t] for ell in range(1, count + 1)]
        coeffs = _solve_exact(rows, moments[:count])
        rounded = [int(round(float(c))) for c in coeffs]
        for c, r in zip(coeffs, rounded):
            assert abs(float(c) - r) <= 1e-3 * max(1, abs(r))
            assert r >= 0
            assert r % k == 0  # the spectrum is k-fold rotation symmetric
        assert rounded[0] == k * am_spectral_radius(g, k)
        assert rounded[1] == k * am_second_modulus(g, k).am_second
        for extra in range(count + 1, count + 4):
            predicted = sum(r * float(tj) ** extra for r, tj in zip(rounded, t))
            assert abs(predicted - moments[extra - 1]) <= 1e-9 * max(1.0, moments[extra - 1])
