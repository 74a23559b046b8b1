import math
import random

import pytest

from powerhyper import (
    Graph,
    PreconditionError,
    SignedGraph,
    delete_vertex,
    is_antibalanced,
    is_balanced,
    lambda_max,
    lambda_second,
    perron_pair,
    rho_unbalanced,
    rho_vertex_deleted,
    spectral_radius,
    spectrum,
    switching_classes,
    sym_eig,
    sym_eig_vectors,
    weakest_edges,
)
from powerhyper.graphs import adjacency_matrix, signed_adjacency_matrix

from _corpus import C4, C6, K2, K3, P3, all_signings, connected_graphs

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_sym_eig_path():
    vals = sym_eig(adjacency_matrix(P3))
    assert max(abs(a - b) for a, b in zip(vals, (-SQRT2, 0.0, SQRT2))) < 1e-12


def test_sym_eig_triangle():
    vals = sym_eig(adjacency_matrix(K3))
    assert max(abs(a - b) for a, b in zip(vals, (-1.0, -1.0, 2.0))) < 1e-12


def test_sym_eig_zero_matrix():
    assert sym_eig([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == (0.0, 0.0, 0.0)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(PreconditionError):
        sym_eig([[0, 1], [0.5, 0]])


def test_sym_eig_rejects_non_square():
    with pytest.raises(PreconditionError):
        sym_eig([[0, 1, 5], [1, 0, 7]])
    with pytest.raises(PreconditionError):
        sym_eig([[0, 1], [1]])


def test_sym_eig_two_by_two_exact():
    assert sym_eig([[0, 1], [1, 0]]) == (-1.0, 1.0)
    assert sym_eig([[2, 0], [0, 2]]) == (2.0, 2.0)


def _random_symmetric(rng, n):
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.uniform(-1.0, 1.0)
    return a


def _frobenius(a):
    return math.sqrt(sum(x * x for row in a for x in row))


def _assert_matches_eigvalsh(np, a):
    tol = 1e-12 * max(1.0, _frobenius(a))
    ref = np.linalg.eigvalsh(np.array(a, dtype=float))
    got = sym_eig(a)
    assert max(abs(x - y) for x, y in zip(got, ref)) <= tol


def test_sym_eig_matches_numpy_random():
    np = pytest.importorskip("numpy")
    rng = random.Random(20251018)
    for n in range(1, 31):
        for _ in range(3):
            _assert_matches_eigvalsh(np, _random_symmetric(rng, n))


def test_sym_eig_matches_numpy_on_signed_graphs():
    np = pytest.importorskip("numpy")
    for g in connected_graphs(5):
        for sg in all_signings(g):
            _assert_matches_eigvalsh(np, signed_adjacency_matrix(sg))


def test_sym_eig_matches_numpy_on_small_integer_matrices():
    # small integer entries give repeated eigenvalues and exactly decoupled
    # blocks, the cases where the QL splitting and 2x2 steps do the work
    np = pytest.importorskip("numpy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def symmetric(draw):
        n = draw(st.integers(1, 12))
        size = n * (n + 1) // 2
        it = iter(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = next(it)
        return a

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(symmetric())
    def check(a):
        _assert_matches_eigvalsh(np, a)

    check()


def test_sym_eig_vectors_match_numpy_eigh():
    np = pytest.importorskip("numpy")
    rng = random.Random(7)
    for n in (1, 2, 5, 17, 30):
        a = _random_symmetric(rng, n)
        tol = 1e-12 * max(1.0, _frobenius(a))
        vals, vecs = sym_eig_vectors(a)
        ref_vals, ref_vecs = np.linalg.eigh(np.array(a))
        assert max(abs(x - y) for x, y in zip(vals, ref_vals)) <= tol
        # the random spectra are simple, so each vector is fixed up to sign
        for j, vec in enumerate(vecs):
            overlap = abs(float(np.dot(ref_vecs[:, j], vec)))
            assert abs(overlap - 1.0) <= 1e-9


def test_sym_eig_vectors_reconstruct_and_orthonormal_n28():
    rng = random.Random(28)
    n = 28
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 4.0 / n:
                a[i][j] = a[j][i] = 1
    tol = 1e-12 * max(1.0, _frobenius(a))
    vals, vecs = sym_eig_vectors(a)
    for lam, vec in zip(vals, vecs):
        for i in range(n):
            image = sum(a[i][j] * vec[j] for j in range(n))
            assert abs(image - lam * vec[i]) <= tol
    for p in range(n):
        for q in range(p, n):
            dot = sum(x * y for x, y in zip(vecs[p], vecs[q]))
            assert abs(dot - (1.0 if p == q else 0.0)) <= tol


def test_sym_eig_vectors_reconstruct():
    a = adjacency_matrix(C4)
    vals, vecs = sym_eig_vectors(a)
    for lam, vec in zip(vals, vecs):
        for i in range(4):
            image = sum(a[i][j] * vec[j] for j in range(4))
            assert abs(image - lam * vec[i]) < 1e-10


def test_spectrum_invariants_trace_and_edges():
    for g in connected_graphs(6, max_edges=7):
        vals = spectrum(g)
        assert abs(sum(vals)) < 1e-9
        assert abs(sum(v * v for v in vals) - 2 * g.m) < 1e-8


def test_spectral_radius_examples():
    assert abs(spectral_radius(K3) - 2.0) < 1e-12
    one_neg = SignedGraph(C4, (-1, 1, 1, 1))
    assert abs(spectral_radius(one_neg) - SQRT2) < 1e-12
    assert abs(spectral_radius(K2) - 1.0) < 1e-12


def test_rho_vertex_deleted_examples():
    assert abs(rho_vertex_deleted(K3) - 1.0) < 1e-12
    assert abs(rho_vertex_deleted(P3) - 1.0) < 1e-12
    assert abs(rho_vertex_deleted(C4) - SQRT2) < 1e-12


def test_weakest_edges_path():
    rep = weakest_edges(P3)
    assert abs(rep.rho - 1.0) < 1e-12
    assert rep.edges == (((0, 1), 0), ((1, 2), 0))
    assert rep.n_pendant == 2 and rep.n_internal == 0


def test_weakest_edges_triangle():
    rep = weakest_edges(K3)
    assert abs(rep.rho - SQRT2) < 1e-12
    assert len(rep.edges) == 3 and all(d == 1 for _, d in rep.edges)


def test_weakest_edges_cycle():
    # every deletion leaves P4, whose radius is the golden ratio
    rep = weakest_edges(C4)
    assert abs(rep.rho - GOLDEN) < 1e-9
    assert len(rep.edges) == 4 and all(d == 1 for _, d in rep.edges)


def test_weakest_edges_rejects_bad_tie_tolerance():
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(PreconditionError):
            weakest_edges(P3, tie_tol=tol)
    assert len(weakest_edges(P3, tie_tol=0.0).edges) == 2


def test_weakest_edges_needs_two_edges():
    with pytest.raises(PreconditionError):
        weakest_edges(K2)


def test_rho_unbalanced_examples():
    assert rho_unbalanced(K3) is None
    assert abs(rho_unbalanced(C4) - SQRT2) < 1e-9
    assert abs(rho_unbalanced(C6) - math.sqrt(3.0)) < 1e-9


def test_switching_class_count():
    assert len(list(switching_classes(C4))) == 2
    assert len(list(switching_classes(K3))) == 2
    assert len(list(switching_classes(P3))) == 1


def test_interlacing_vertex_deletion():
    for g in connected_graphs(6):
        if g.n < 2:
            continue
        top = lambda_max(g)
        second = lambda_second(g)
        for v in range(g.n):
            mid = lambda_max(delete_vertex(g, v)[0])
            assert top >= mid - 1e-9
            assert mid >= second - 1e-9


def test_signed_radius_bound_and_equality_cases():
    # rho of any signing never beats the all-positive one; equality only for
    # balanced or antibalanced signings
    for g in connected_graphs(6, max_edges=7):
        rho = spectral_radius(g)
        for sg in all_signings(g):
            r = spectral_radius(sg)
            assert r <= rho + 1e-9
            attains = r >= rho - 1e-9
            assert attains == (is_balanced(sg)[0] or is_antibalanced(sg)[0])


def _componentwise_balanced(g, signs, idxs):
    # balance of the spanning subgraph with the given edge indices
    pot = [0] * g.n
    adj = [[] for _ in range(g.n)]
    for i in idxs:
        u, v = g.edges[i]
        adj[u].append((v, i))
        adj[v].append((u, i))
    for s in range(g.n):
        if pot[s]:
            continue
        pot[s] = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for w, ei in adj[v]:
                if not pot[w]:
                    pot[w] = pot[v] * signs[ei]
                    stack.append(w)
    return all(pot[g.edges[i][0]] * signs[i] * pot[g.edges[i][1]] == 1 for i in idxs)


def test_largest_eigenvalue_bounded_by_balanced_spanning_subgraph():
    for g in connected_graphs(6, max_edges=6):
        subset_rho = {}
        for mask in range(1 << g.m):
            idxs = tuple(i for i in range(g.m) if mask >> i & 1)
            sub = Graph(g.n, tuple(g.edges[i] for i in idxs))
            subset_rho[idxs] = spectral_radius(sub)
        for sg in all_signings(g):
            bound = max(
                r
                for idxs, r in subset_rho.items()
                if _componentwise_balanced(g, sg.signs, idxs)
            )
            assert lambda_max(sg) <= bound + 1e-9


def test_unbalanced_largest_eigenvalue_below_edge_deletion_radius():
    for g in connected_graphs(6, max_edges=6):
        if g.m < 2:
            continue
        bound = weakest_edges(g).rho
        for sg in all_signings(g):
            if not is_balanced(sg)[0]:
                assert lambda_max(sg) < bound - 1e-9


def test_perron_pair_path():
    rho, vec = perron_pair(P3)
    assert abs(rho - SQRT2) < 1e-12
    assert abs(vec[1] - 1.0) < 1e-12
    assert abs(vec[0] - 1 / SQRT2) < 1e-10 and abs(vec[2] - 1 / SQRT2) < 1e-10


def test_perron_requires_connected():
    with pytest.raises(PreconditionError):
        perron_pair(Graph(3, ((0, 1),)))
