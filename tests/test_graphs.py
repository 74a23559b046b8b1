import tracemalloc
from itertools import product

import pytest

from powerhyper import (
    Graph,
    GraphClass,
    GraphParseError,
    PreconditionError,
    SignedGraph,
    all_negative,
    all_positive,
    classify,
    components,
    connected_edge_subsets,
    delete_edge,
    delete_vertex,
    is_antibalanced,
    is_balanced,
    is_bipartite,
    is_cut_edge,
    parse_edge_list,
    spectrum,
    switch,
    switching_classes,
)
from powerhyper import power, walks
from powerhyper.graphs import (
    CACHE_SIZE,
    _gauge,
    adjacency_lists,
    is_connected,
    spanning_tree_edges,
)

from _corpus import (
    C4,
    K3,
    K4,
    P3,
    all_signings,
    connected_graphs,
    edges_span_connected,
    random_graphs,
    ref_components,
    ref_is_balanced,
    ref_is_bipartite,
)


def test_every_memo_is_bounded():
    memos = (spectrum, adjacency_lists, power._hyperedges, power._incidence, walks._walk_dp)
    assert CACHE_SIZE == 4096
    for memo in memos:
        assert memo.cache_info().maxsize == CACHE_SIZE, memo.__name__


def test_parse_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_parse_triangle_with_comments():
    g = parse_edge_list("# a triangle\n0 1\n\n1 2\n2 0\n")
    assert g.n == 3 and g.m == 3


def test_parse_self_loop_names_line():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("0 0")


def test_parse_duplicate_edge():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_edge_list("0 1\n1 0")


def test_parse_malformed_token():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("0 1\n1 x")


def test_parse_header_declares_isolated_vertices():
    g = parse_edge_list("4 2\n0 1\n1 2")
    assert g.n == 4 and g.m == 2


def test_parse_first_line_kept_as_edge_when_not_a_header():
    # "0 1" cannot declare n=0, so it is an edge
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    # "5 2" with only one following line is an edge too
    g2 = parse_edge_list("5 2\n0 1")
    assert g2.n == 6 and g2.m == 2


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_classify():
    assert classify(P3) is GraphClass.TREE
    assert classify(K3) is GraphClass.ODD_UNICYCLIC
    assert classify(C4) is GraphClass.BIPARTITE_NON_TREE
    assert classify(K4) is GraphClass.GENERAL
    with pytest.raises(PreconditionError):
        classify(Graph(4, ((0, 1), (2, 3))))


def test_classify_partition_exhaustive():
    # exactly one class; Tree or OddUnicyclic <=> m <= n and every cycle is odd
    from powerhyper import is_bipartite

    for g in connected_graphs(6):
        cls = classify(g)
        expected = g.m == g.n - 1 or (g.m == g.n and not is_bipartite(g))
        assert (cls in (GraphClass.TREE, GraphClass.ODD_UNICYCLIC)) == expected
        if g.m == g.n - 1:
            assert cls is GraphClass.TREE


def test_balance_examples():
    flag, pot = is_balanced(all_positive(K3))
    assert flag and pot == (1, 1, 1)
    one_neg = SignedGraph(K3, (-1, 1, 1))
    assert is_balanced(one_neg) == (False, None)
    ring = SignedGraph(C4, (1, -1, -1, 1))
    flag, pot = is_balanced(ring)
    assert flag
    for (u, v), s in zip(C4.edges, ring.signs):
        assert pot[u] * s * pot[v] == 1


def test_antibalanced():
    assert is_antibalanced(all_negative(K3))[0]
    assert not is_antibalanced(all_positive(K3))[0]
    # bipartite: all-positive is also antibalanced
    assert is_antibalanced(all_positive(C4))[0]


def _tree_paths(g):
    adj = adjacency_lists(g)
    tree = set(spanning_tree_edges(g))
    parent = {0: (0, None)}
    order = [0]
    for v in order:
        for w, ei in adj[v]:
            if ei in tree and w not in parent:
                parent[w] = (v, ei)
                order.append(w)
    return parent


def test_balance_agrees_with_cycle_basis_products():
    # balanced iff every fundamental cycle has sign product +1
    for g in connected_graphs(6):
        parent = _tree_paths(g)
        tree = set(spanning_tree_edges(g))
        for sg in all_signings(g):
            def path_sign(v):
                s = 1
                while parent[v][1] is not None:
                    v, ei = parent[v]
                    s *= sg.signs[ei]
                return s

            ok = all(
                path_sign(u) * path_sign(v) * sg.signs[ei] == 1
                for ei, (u, v) in enumerate(g.edges)
                if ei not in tree
            )
            assert ok == is_balanced(sg)[0]


def test_switch_identity_and_involution():
    for sg in all_signings(K3):
        assert switch(sg, set()) == sg
        assert switch(switch(sg, {1}), {1}) == sg


def test_switch_moves_negative_edge():
    # edges (a,b),(b,c),(a,c) with (a,b) negative; switching at a
    sg = SignedGraph(Graph(3, ((0, 1), (1, 2), (0, 2))), (-1, 1, 1))
    out = switch(sg, {0})
    assert out.signs == (1, 1, -1)


def test_switch_preserves_spectrum():
    for g in connected_graphs(5):
        for sg in all_signings(g):
            base = spectrum(sg)
            for subset in ({0}, {0, 1}):
                other = spectrum(switch(sg, subset))
                assert max(abs(a - b) for a, b in zip(base, other)) < 1e-9


def test_switch_vertex_out_of_range():
    with pytest.raises(PreconditionError):
        switch(all_positive(K3), {7})


def test_connected_edge_subsets_small():
    assert len(connected_edge_subsets(P3, 2)) == 3
    assert len(connected_edge_subsets(K3, 2)) == 6
    assert len(connected_edge_subsets(K3, 3)) == 7


def test_connected_edge_subsets_k4_matches_bruteforce():
    subsets = connected_edge_subsets(K4, 6)
    # brute force: connectivity filter over all 2^6 nonempty subsets
    expected = [
        tuple(i for i in range(6) if mask >> i & 1)
        for mask in range(1, 64)
        if edges_span_connected(K4, [i for i in range(6) if mask >> i & 1])
    ]
    assert sorted(subsets) == sorted(expected)
    assert len(subsets) == len(set(subsets))


def test_connected_edge_subsets_match_mask_scan():
    # the exact list, order included, for every size bound
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(random_graphs(hypothesis.strategies, 9, 12))
    @hypothesis.example(Graph(8, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))))
    def check(g):
        scan = [
            tuple(i for i in range(g.m) if mask >> i & 1) for mask in range(1, 1 << g.m)
        ]
        connected = [idxs for idxs in scan if edges_span_connected(g, idxs)]
        for s in range(1, g.m + 1):
            assert connected_edge_subsets(g, s) == [c for c in connected if len(c) <= s]

    check()


def test_forest_answers_match_references():
    # every traversal answer agrees with a traversal-free reference, on
    # connected and disconnected graphs, forests and edgeless graphs alike
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(random_graphs(hypothesis.strategies, 9, 12))
    @hypothesis.example(Graph(8, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))))
    @hypothesis.example(Graph(7, ((0, 1), (1, 2), (3, 5), (4, 6))))
    @hypothesis.example(Graph(3, ()))
    def check(g):
        comps = ref_components(g)
        assert components(g) == comps
        assert is_connected(g) == (len(comps) == 1)
        assert is_bipartite(g) == ref_is_bipartite(g)
        tree = spanning_tree_edges(g)
        assert len(tree) == g.n - len(comps)
        sub = Graph(g.n, tuple(g.edges[i] for i in tree))
        assert ref_components(sub) == comps  # n - c edges spanning c components: acyclic
        if len(comps) == 1:
            for sg in all_signings(g) if g.m <= 6 else (all_positive(g), all_negative(g)):
                flag, pot = is_balanced(sg)
                assert flag == ref_is_balanced(g, sg.signs)
                if flag:
                    assert all(pot[u] * s * pot[v] == 1 for (u, v), s in zip(g.edges, sg.signs))
        else:
            with pytest.raises(PreconditionError):
                is_balanced(all_positive(g))

    check()


def test_switching_classes_partition_every_signing():
    # the orbits of the representatives under all 2^n switchings cover each
    # of the 2^m signings exactly once
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(random_graphs(hypothesis.strategies, 8, 8))
    @hypothesis.example(Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))))
    def check(g):
        reps = list(switching_classes(g))
        assert len(reps) == 2 ** (g.m - g.n + len(ref_components(g)))
        seen = set()
        for sg in reps:
            orbit = {
                tuple(x[u] * s * x[v] for (u, v), s in zip(g.edges, sg.signs))
                for x in product((1, -1), repeat=g.n)
            }
            assert not orbit & seen
            seen |= orbit
        assert len(seen) == 2**g.m

    check()


def test_gauge_is_the_switching_class_representative():
    # rep is the signing switched by the potentials: +1 on the spanning
    # forest, one of the switching_classes representatives, and free of -1
    # exactly when the signing is balanced
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(random_graphs(hypothesis.strategies, 7, 8))
    @hypothesis.example(Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6))))
    def check(g):
        tree = spanning_tree_edges(g)
        reps = {sg.signs for sg in switching_classes(g)}
        for sg in all_signings(g):
            pot, rep = _gauge(g, sg.signs)
            switched = tuple(pot[u] * s * pot[v] for (u, v), s in zip(g.edges, sg.signs))
            on_tree = {rep[i] for i in tree}
            assert rep == switched and rep in reps and on_tree <= {1}, sg
            assert (-1 not in rep) == ref_is_balanced(g, sg.signs), sg

    check()


def test_extremal_classes_are_read_off_the_gauge():
    # the two classes rho_unbalanced takes as extremal are exactly those the
    # per-class balance and antibalance tests accept
    for g in connected_graphs(6, max_edges=8):
        by_tests = {
            sg.signs
            for sg in switching_classes(g)
            if is_balanced(sg)[0] or is_antibalanced(sg)[0]
        }
        assert by_tests == {(1,) * g.m, _gauge(g, (-1,) * g.m)[1]}


def test_is_connected_counts_edges_before_allocating():
    g = Graph(3_000_001, ((0, 1), (1, 3_000_000)))
    tracemalloc.start()
    try:
        assert not is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_delete_edge_and_components():
    h = delete_edge(P3, (0, 1))
    assert h.n == 3 and h.edges == ((1, 2),)
    assert components(h) == [[0], [1, 2]]


def test_delete_vertex_relabels():
    h, vmap = delete_vertex(P3, 1)
    assert h.n == 2 and h.m == 0
    assert vmap == {0: 0, 2: 1}
    h2, vmap2 = delete_vertex(K3, 0)
    assert h2.edges == ((0, 1),) and vmap2 == {1: 0, 2: 1}


def test_is_cut_edge():
    assert not any(is_cut_edge(C4, e) for e in C4.edges)
    assert is_cut_edge(P3, (0, 1))
