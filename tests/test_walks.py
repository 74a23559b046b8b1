import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from powerhyper import (
    Graph,
    PreconditionError,
    connected_edge_subsets,
    covering_parity_closed_walks,
    edge_subgraph,
    parity_closed_walks,
    signed_moment_average,
    walk_ratio_series,
)

from powerhyper import walks
from powerhyper.graphs import signed_adjacency_matrix

from _corpus import (
    C4,
    K2,
    K3,
    P3,
    all_signings,
    connected_graphs,
    random_graphs,
    ref_closed_walks,
)


def test_parity_examples():
    assert parity_closed_walks(P3, 2) == 4  # 2|E|
    assert parity_closed_walks(P3, 4) == 8
    assert parity_closed_walks(K3, 4) == 18


def test_parity_pattern_for_path():
    # 2^(l+1) at d = 2l
    for ell in range(1, 8):
        assert parity_closed_walks(P3, 2 * ell) == 2 ** (ell + 1)


def test_parity_odd_lengths_vanish():
    for d in (1, 3, 5, 7):
        assert parity_closed_walks(K3, d) == 0
        assert covering_parity_closed_walks(K3, d) == 0


def test_covering_examples():
    assert covering_parity_closed_walks(K2, 2) == 2
    assert covering_parity_closed_walks(P3, 4) == 4
    assert covering_parity_closed_walks(K3, 4) == 0


def test_covering_zero_below_double_edge_count():
    for g in (P3, K3, C4):
        for d in range(2, 2 * g.m, 2):
            assert covering_parity_closed_walks(g, d) == 0


def test_walk_preconditions():
    with pytest.raises(PreconditionError):
        parity_closed_walks(P3, 0)
    with pytest.raises(PreconditionError):
        covering_parity_closed_walks(Graph(4, ((0, 1), (2, 3))), 4)


def test_signed_moment_average_examples():
    assert signed_moment_average(K2, 2) == 2
    assert signed_moment_average(P3, 4) == 8
    assert signed_moment_average(K3, 4) == 18


def test_parity_equals_signed_average_small():
    for g in connected_graphs(5, max_edges=6):
        for d in (2, 4, 6, 8):
            avg = signed_moment_average(g, d)
            assert avg.denominator == 1
            assert parity_closed_walks(g, d) == avg


def test_signed_moment_average_matches_every_signing():
    # the full 2^m average; forests, isolated vertices and several
    # components are where fixing the signs on a spanning forest can slip
    hypothesis = pytest.importorskip("hypothesis")
    d_max = 8

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(random_graphs(hypothesis.strategies, 7, 8))
    @hypothesis.example(Graph(6, ((0, 1), (1, 2), (3, 4))))
    @hypothesis.example(Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))))
    @hypothesis.example(Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))))
    def check(g):
        totals = [0] * d_max
        for sg in all_signings(g):
            a = signed_adjacency_matrix(sg)
            cols = list(zip(*a))
            power = a
            for d in range(1, d_max + 1):
                if d > 1:
                    power = [[sum(x * y for x, y in zip(row, c)) for c in cols] for row in power]
                totals[d - 1] += sum(power[i][i] for i in range(g.n))
        for d in range(1, d_max + 1):
            assert signed_moment_average(g, d) == Fraction(totals[d - 1], 2**g.m)

    check()


def test_walks_skip_isolated_vertices():
    # P3 with 398 isolated vertices in between: same counts as P3, and no
    # state or matrix is built for the isolated vertices
    g = Graph(401, ((0, 1), (1, 400)))
    for fn in (parity_closed_walks, signed_moment_average):
        expected = [fn(P3, d) for d in range(2, 9)]
        walks._walk_dp.cache_clear()
        tracemalloc.start()
        try:
            got = [fn(g, d) for d in range(2, 9)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected, fn.__name__
        assert peak < 32 * 1024, fn.__name__
    assert parity_closed_walks(Graph(5, ()), 4) == 0
    assert signed_moment_average(Graph(5, ()), 4) == 0


def test_parity_decomposes_into_covering_counts():
    # closed parity walks split by their (connected) edge support
    for g in connected_graphs(6, max_edges=7):
        for d in (2, 4, 6, 8, 10, 12):
            total = 0
            for idxs in connected_edge_subsets(g, d // 2):
                sub, _ = edge_subgraph(g, idxs)
                total += covering_parity_closed_walks(sub, d)
            assert total == parity_closed_walks(g, d)


def test_walk_dp_memo_under_threads():
    # 8 threads (more than the cores here) query shared DPs at growing lengths
    # while the memo is cleared; every count must match a fresh DP's
    graphs = [g for g in connected_graphs(5) if g.m >= 3][:6]
    lengths = range(2, 15, 2)
    expected = {
        (g, covering): [walks._WalkDP(g, covering).count(d) for d in lengths]
        for g in graphs
        for covering in (False, True)
    }
    errors = []

    def worker(seed):
        try:
            for round_ in range(20):
                for g in graphs[seed % 3 :]:
                    got = [parity_closed_walks(g, d) for d in lengths]
                    got_covering = [covering_parity_closed_walks(g, d) for d in lengths]
                    if got != expected[g, False] or got_covering != expected[g, True]:
                        errors.append((seed, round_, g))
                if round_ % 7 == seed % 7:
                    walks._walk_dp.cache_clear()
        except Exception as exc:  # reported through errors below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_ratio_series_single_edge():
    assert walk_ratio_series(K2, 5) == [2.0] * 5


def test_ratio_series_path():
    got = walk_ratio_series(P3, 5)
    expected = [(2 ** (ell + 1) - 4) / 2**ell for ell in range(1, 6)]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx([0.0, 1.0, 1.5, 1.75, 1.875], abs=1e-12)


def test_ratio_series_tends_to_power_of_two():
    # limit is 2^(n - m)
    for g, target in ((K2, 2.0), (P3, 2.0), (K3, 1.0)):
        series = walk_ratio_series(g, 12)
        assert abs(series[-1] - target) <= 0.03 * target


def test_signed_average_matches_spectral_moments():
    # independent route: sum of eigenvalue powers over all signings
    for g in (P3, K3, C4):
        for d in (2, 4, 6):
            from _corpus import all_signings
            from powerhyper import spectrum

            acc = 0.0
            for sg in all_signings(g):
                acc += sum(v**d for v in spectrum(sg))
            assert abs(acc / 2**g.m - float(signed_moment_average(g, d))) < 1e-6


def test_walk_counts_match_enumeration():
    # one DP table serves every start; enumerating each start's closed walks
    # separately must give the same counts, disconnected graphs included
    split = Graph(8, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)))  # K3 + P4 + K1
    for g in (*connected_graphs(5), split):
        for d in range(1, 9):
            assert parity_closed_walks(g, d) == ref_closed_walks(g, d, False), (g, d)
            expected = ref_closed_walks(g, d, True)
            assert walks._WalkDP(g, True).count(d) == expected, (g, d)
            if g is not split:
                assert covering_parity_closed_walks(g, d) == expected, (g, d)
