import itertools
import math

import pytest

from ferrers_lab import (
    BipartiteGraph,
    BudgetExceeded,
    Graph,
    InternalCheckError,
    Partition,
    enumerate_spanning_trees,
    ferrers_from_partition,
    laplacian,
    sigma_bruteforce,
    sigma_formula,
    tau,
)
from ferrers_lab import search, trees
from ferrers_lab.exactla import tree_count
from ferrers_lab.search import _classes_mn, _Counter

from conftest import (
    complete_bipartite,
    components,
    connected_ferrers_partitions,
    example_staircase,
    random_connected_graph,
)


def _cofactor_tau(g):
    return tree_count(laplacian(g))


def test_tau_worked_example():
    assert tau(example_staircase()) == 36


def test_tau_complete_bipartite_grid():
    for m in range(1, 6):
        for n in range(1, 6):
            g = complete_bipartite(m, n)
            assert tau(g) == m ** (n - 1) * n ** (m - 1)
            assert _cofactor_tau(g) == tau(g)


def test_tau_trees_and_disconnected():
    assert tau(Graph(4, [(1, 2), (2, 3), (3, 4)])) == 1
    assert tau(Graph(4, [(1, 2), (3, 4)])) == 0
    assert tau(Graph(1, [])) == 1
    with pytest.raises(ValueError):
        tau(Graph(0, []))


def test_schur_tau_matches_cofactor_every_class():
    # every m x n class without a zero row on at most 8 vertices: connected
    # ones, disconnected ones and ones with isolated columns, both ways round
    counter = _Counter(10 ** 6)
    for n in range(1, 8):
        for m in range(1, 9 - n):
            for rows in _classes_mn(m, n, counter).values():
                g = BipartiteGraph(m, n, rows)
                for h in (g, g.transpose()):
                    assert tau(h) == _cofactor_tau(h), h


def test_scan_check_matches_cofactor_every_connected_class():
    # the scan's check on each connected class with at most 9 vertices
    # (A005142 summed), as growth streams them, against an independent
    # route: the Laplacian cofactor's tau and the product of the degrees
    classes = 0
    for g in search._connected_classes(9, _Counter()):
        t = _cofactor_tau(g)
        lhs = t * g.m * g.n
        rhs = math.prod(g.degrees_u()) * math.prod(g.degrees_v())
        assert trees._degree_product(g) == (t, lhs, rhs), g
        assert search._ferrers_check_one(g) == (lhs > rhs if lhs >= rhs else None), g
        classes += 1
    assert classes == 983


def test_schur_tau_matches_cofactor_more_rows(rng):
    # m > n: the rows are transposed to the smaller part first
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(n + 1, 8)
        g = BipartiteGraph(m, n, [rng.randint(0, (1 << n) - 1) for _ in range(m)])
        assert tau(g) == _cofactor_tau(g), g


def test_schur_tau_small_and_degenerate_cases():
    star = BipartiteGraph(3, 1, [1, 1, 1])  # "bipartite 3 1"
    k11 = complete_bipartite(1, 1)
    isolated_column = BipartiteGraph(2, 3, [0b011, 0b011])
    zero_row = BipartiteGraph(2, 2, [0b11, 0])
    two_edges = BipartiteGraph(2, 2, [0b01, 0b10])  # disconnected, no isolated vertex
    k22_plus_path = BipartiteGraph(3, 4, [0b0011, 0b0011, 0b1100])
    for g, expected in [(star, 1), (star.transpose(), 1), (k11, 1),
                        (isolated_column, 0), (zero_row, 0), (two_edges, 0),
                        (k22_plus_path, 0)]:
        assert tau(g) == _cofactor_tau(g) == expected, g


def test_staircase_tau_matches_cofactor():
    # the recount of a tight staircase, the product formula, on every
    # connected staircase with at most 9 vertices, in either orientation
    # and with its rows in any order
    for lmbda in connected_ferrers_partitions(9):
        g = ferrers_from_partition(lmbda, lmbda[0])
        expected = _cofactor_tau(g)
        for h in (g, g.transpose(), BipartiteGraph(g.m, g.n, g.rows[::-1])):
            assert trees._staircase_tau(h) == expected, h


def test_schur_tau_inexact_division_is_internal_check(monkeypatch):
    # column degrees (3, 2, 1): P = 6 and P^2 = 36 must divide 6 det(A)
    orig = trees.det_int
    monkeypatch.setattr(trees, "det_int", lambda a: orig(a) + 1)
    staircase = BipartiteGraph(3, 3, [0b111, 0b011, 0b001])
    with pytest.raises(InternalCheckError, match="not an integer"):
        tau(staircase)


def test_enumeration_small_cases():
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert len(enumerate_spanning_trees(c4)) == 4
    assert len(enumerate_spanning_trees(example_staircase())) == 36
    p4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert enumerate_spanning_trees(p4) == [((1, 2), (2, 3), (3, 4))]


def test_enumeration_is_sorted_and_unique():
    trees = enumerate_spanning_trees(example_staircase())
    assert trees == sorted(set(trees))
    for tree in trees:
        assert len(tree) == 6  # spanning trees on 7 vertices


def test_enumeration_matches_tau(rng):
    for _ in range(15):
        g = random_connected_graph(rng, max_n=7)
        assert len(enumerate_spanning_trees(g)) == tau(g)


def test_enumeration_matches_spanning_subsets(rng):
    # the spanning trees are exactly the (n-1)-edge subsets that union-find
    # finds connected, in the same sorted order
    graphs = [example_staircase(), complete_bipartite(3, 3), Graph(1, [])]
    graphs += [random_connected_graph(rng, max_n=6) for _ in range(12)]
    for g in graphs:
        h = g.to_graph() if isinstance(g, BipartiteGraph) else g
        n = h.vcount
        expected = [
            subset
            for subset in itertools.combinations(h.sorted_edges(), n - 1)
            if len(components(n, subset)) == 1
        ]
        assert enumerate_spanning_trees(g) == expected, g


def test_enumeration_budget_error():
    k55 = complete_bipartite(5, 5)
    with pytest.raises(BudgetExceeded, match="10"):
        enumerate_spanning_trees(k55, budget=10)


def test_enumeration_without_a_spanning_tree_is_empty():
    # the matching u1-v1, u2-v2 and a graph with an isolated vertex: the
    # walk never skips an edge, finds no tree and agrees with tau = 0
    matching = BipartiteGraph.from_edges(2, 2, [(1, 1), (2, 2)])
    for g in [matching, Graph(4, [(1, 2), (3, 4)]), Graph(3, [(1, 2)])]:
        assert tau(g) == 0
        assert enumerate_spanning_trees(g) == []
    assert sigma_bruteforce(matching) == {}
    assert tau(Graph(1, [])) == 1
    assert enumerate_spanning_trees(Graph(1, [])) == [()]


def test_sigma_bruteforce_single_edge():
    poly = sigma_bruteforce(complete_bipartite(1, 1))
    assert poly == {(1, 1): 1}


def test_sigma_bruteforce_counts_trees(rng):
    g = example_staircase()
    poly = sigma_bruteforce(g)
    assert sum(poly.values()) == 36


def test_sigma_formula_single_edge():
    lam = Partition((1,))
    assert sigma_formula(lam) == {(1, 1): 1}


def test_sigma_formula_matches_bruteforce_k22():
    lam = Partition((2, 2))
    graph = ferrers_from_partition(lam, 2)
    assert sigma_formula(lam) == sigma_bruteforce(graph)


def test_sigma_formula_evaluates_to_tau():
    for parts in [(3, 3, 2, 1), (4, 2, 1), (2, 2, 2), (5, 1)]:
        lam = Partition(parts)
        poly = sigma_formula(lam)
        graph = ferrers_from_partition(lam, lam[0])
        assert sum(poly.values()) == tau(graph)


def test_sigma_formula_rejects_empty_partition():
    with pytest.raises(ValueError, match="connected staircase"):
        sigma_formula(Partition(()))


def test_sigma_formula_matches_bruteforce_small_staircases():
    for lam in connected_ferrers_partitions(8):
        if sum(lam) > 8:
            continue
        graph = ferrers_from_partition(lam, lam[0])
        assert sigma_formula(lam) == sigma_bruteforce(graph)


def test_edge_deletion_monotone_in_tau(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_n=6)
        base = tau(g)
        for e in g.sorted_edges():
            reduced = g.delete_edge(e)
            if reduced.is_connected():
                assert tau(reduced) < base
            else:
                assert tau(reduced) == 0

