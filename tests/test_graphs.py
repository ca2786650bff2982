import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest

from ferrers_lab import (
    BipartiteGraph,
    Graph,
    GraphFormatError,
    Partition,
    conjugate,
    enumerate_spanning_trees,
    ferrers_bound_check,
    ferrers_from_partition,
    format_graph,
    grone_merris_check,
    is_ferrers,
    laplacian,
    parse_graph_file,
    pendant_add,
    resistance,
    tau,
)
from ferrers_lab.graphs import _normalize
from ferrers_lab.spectral import _eigenvalues

from conftest import (
    EXAMPLE_LAPLACIAN,
    bipartite_cycle,
    complete_bipartite,
    components,
    example_staircase,
    partitions_up_to,
    random_connected_bipartite,
    shuffle_bipartite,
)


def test_staircase_construction_degrees():
    g = ferrers_from_partition(Partition((3, 3, 2, 1)), 3)
    assert g.degrees_u() == [3, 3, 2, 1]
    assert g.degrees_v() == [4, 3, 2]
    assert g.edge_count() == 9
    assert g == example_staircase()


def test_staircase_single_edge_and_complete():
    assert ferrers_from_partition(Partition((1,)), 1).edge_count() == 1
    km = ferrers_from_partition(Partition((4, 4, 4)), 4)
    assert km.edge_count() == 12
    assert km == complete_bipartite(3, 4)


def test_staircase_rejects_wide_part():
    with pytest.raises(ValueError):
        ferrers_from_partition(Partition((4,)), 3)


def test_staircase_allows_isolated_columns():
    g = ferrers_from_partition(Partition((2, 1)), 3)
    assert g.degrees_v() == [2, 1, 0]
    assert not g.is_connected()


def test_staircase_degree_sequences_exhaustive():
    for parts in partitions_up_to(16):
        lam = Partition(parts)
        g = ferrers_from_partition(lam, lam[0])
        assert g.degrees_u() == list(lam.parts)
        assert g.degrees_v() == list(conjugate(lam).parts)


def test_laplacian_matches_fixture():
    assert laplacian(example_staircase()) == EXAMPLE_LAPLACIAN


def test_laplacian_small_cases():
    assert laplacian(Graph(2, [(1, 2)])) == [[1, -1], [-1, 1]]
    assert laplacian(Graph(3, [])) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_laplacian_row_sums_and_symmetry(rng):
    for _ in range(10):
        g = random_connected_bipartite(rng)
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap)
        assert all(
            lap[i][j] == lap[j][i] for i in range(len(lap)) for j in range(len(lap))
        )


def test_bipartite_laplacian_matches_graph_route(rng):
    # read from the bit rows, U vertices first, isolated vertices included
    graphs = [BipartiteGraph(2, 3, [0b001, 0]), BipartiteGraph(1, 1, [0])]
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.random()
        graphs.append(BipartiteGraph(m, n, [
            sum(1 << j for j in range(n) if rng.random() < density)
            for _ in range(m)
        ]))
    for g in graphs:
        assert laplacian(g) == laplacian(g.to_graph()), g


def test_bipartite_queries_match_graph_route(rng):
    # tree count, normalized spectra, Grone-Merris and resistance read a
    # bipartite graph directly, U vertices first as in to_graph
    graphs = [example_staircase(), complete_bipartite(3, 4), bipartite_cycle(4)]
    graphs += [random_connected_bipartite(rng, 5, 5) for _ in range(20)]
    for g in graphs:
        h = g.to_graph()
        assert tau(g) == tau(h), g
        nlap = _normalize(laplacian(g))
        assert nlap == _normalize(laplacian(h)), g
        assert _eigenvalues(nlap) == _eigenvalues(_normalize(laplacian(h))), g
        assert grone_merris_check(g) == grone_merris_check(h), g
        assert resistance(g, 1, g.vcount) == resistance(h, 1, g.vcount), g


def _is_staircase_under(g, row_perm, col_perm):
    degs = [g.rows[i].bit_count() for i in row_perm]
    if any(degs[k] < degs[k + 1] for k in range(len(degs) - 1)):
        return False
    if degs[0] != g.n or degs[-1] == 0:  # a full first row, a nonempty last one
        return False
    for pos, i in enumerate(row_perm):
        want = set(col_perm[: degs[pos]])
        got = {j for j in range(g.n) if g.rows[i] >> j & 1}
        if want != got:
            return False
    return True


def brute_force_is_ferrers(g):
    return any(
        _is_staircase_under(g, rp, cp)
        for rp in itertools.permutations(range(g.m))
        for cp in itertools.permutations(range(g.n))
    )


def test_is_ferrers_on_shuffled_staircase(rng):
    g = example_staircase()
    for _ in range(25):
        assert is_ferrers(shuffle_bipartite(g, rng))


def test_is_ferrers_rejects_six_cycle():
    c6 = bipartite_cycle(3)
    assert not brute_force_is_ferrers(c6)  # oracle: no arrangement works
    assert not is_ferrers(c6)


def test_is_ferrers_complete_and_isolated():
    assert is_ferrers(complete_bipartite(2, 3))
    with_isolated = BipartiteGraph(2, 2, [0b01, 0b01])
    assert not is_ferrers(with_isolated)


def test_is_ferrers_matches_bruteforce(rng):
    graphs = [random_connected_bipartite(rng, max_m=3, max_n=4) for _ in range(40)]
    # every matrix up to 3 x 3, zero rows and empty columns included
    graphs += [
        BipartiteGraph(m, n, rows)
        for m in range(1, 4)
        for n in range(1, 4)
        for rows in itertools.product(range(1 << n), repeat=m)
    ]
    for g in graphs:
        assert is_ferrers(g) == brute_force_is_ferrers(g), g


def test_graph_is_connected_matches_union_find(rng):
    # seeded random general graphs, the empty and one-vertex graphs included
    for n in range(9):
        for _ in range(30):
            p = rng.random()
            edges = [
                (a, b)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                if rng.random() < p
            ]
            expected = len(components(n, edges)) <= 1
            assert Graph(n, edges).is_connected() == expected, (n, edges)


def test_normalized_laplacian_single_edge():
    assert _normalize(laplacian(Graph(2, [(1, 2)]))) == [[1.0, -1.0], [-1.0, 1.0]]


def test_normalized_laplacian_path_eigenvalues():
    k12 = complete_bipartite(1, 2)
    vals = sorted(np.linalg.eigvalsh(np.array(_normalize(laplacian(k12)))))
    assert np.allclose(vals, [0.0, 1.0, 2.0], atol=1e-9)


def test_normalized_laplacian_rejects_isolated():
    with pytest.raises(ValueError):
        _normalize(laplacian(Graph(3, [(1, 2)])))


def test_normalized_top_eigenvalue_bipartite_vs_odd_cycle(rng):
    for _ in range(6):
        g = random_connected_bipartite(rng)
        top = max(np.linalg.eigvalsh(np.array(_normalize(laplacian(g)))))
        assert abs(top - 2.0) <= 1e-9
    c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    top = max(np.linalg.eigvalsh(np.array(_normalize(laplacian(c5)))))
    assert top < 2.0 - 1e-6


def test_ferrers_invariant_values():
    # the eq3 bound's rhs: the product of all degrees over |U|*|V|
    assert ferrers_bound_check(example_staircase()).rhs == 36
    assert ferrers_bound_check(complete_bipartite(1, 1)).rhs == 1
    k22 = complete_bipartite(2, 2)
    assert ferrers_bound_check(k22).rhs == 4
    assert len(enumerate_spanning_trees(k22)) == 4  # independent count


def test_ferrers_invariant_isomorphism_invariant(rng):
    g = example_staircase()
    for _ in range(10):
        assert ferrers_bound_check(shuffle_bipartite(g, rng)).rhs == 36


def test_pendant_add():
    p3 = pendant_add(complete_bipartite(1, 1), 1)
    assert (p3.m, p3.n) == (1, 2)
    assert p3.edge_count() == 2
    bigger = pendant_add(example_staircase(), 1)
    assert bigger.vcount == 8
    assert bigger.edge_count() == 10
    with pytest.raises(ValueError):
        pendant_add(complete_bipartite(1, 1), 3)


def test_pendant_add_builds_trees():
    g = complete_bipartite(1, 1)
    for v in (1, 2, 1, 3):
        g = pendant_add(g, v)
        assert tau(g) == 1


def test_stats_exact_density():
    g = example_staircase()
    assert g.edge_count() == 9
    assert Fraction(g.edge_count(), g.m * g.n) == Fraction(9, 12)
    # degrees 3,3,2,1 and 4,3,2: 432 / (4 * 3)
    assert ferrers_bound_check(g).rhs == 36
    assert g.is_connected()


def test_graph_file_round_trip():
    g = example_staircase()
    assert parse_graph_file(format_graph(g)) == g
    gen = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert parse_graph_file(format_graph(gen)) == gen


def test_graph_file_errors_name_lines():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph_file("nonsense 1 2\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph_file("bipartite 2 2\n1 2\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph_file("general 3\n1 2\n1 2 3\n")


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty graph file"),
    ("\n  \n", "line 1: empty graph file"),
    ("nonsense 1 2\n", "line 1: unknown header 'nonsense'"),
    ("\nmystery\n", "line 2: unknown header 'mystery'"),
    ("bipartite 2\n", "line 1: expected 'bipartite m n'"),
    ("\n\nbipartite 2 2 2\n", "line 3: expected 'bipartite m n'"),
    ("bipartite a 2\n", "line 1: bad part sizes"),
    ("bipartite 2 2\n1 2\n", "line 2: expected 'e i j'"),
    ("bipartite 2 2\ne 1 1\n\nf 1 2\n", "line 4: expected 'e i j'"),
    ("bipartite 2 2\ne 1 1 1\n", "line 2: expected 'e i j'"),
    ("bipartite 2 2\ne 1 x\n", "line 2: bad edge indices"),
    ("bipartite 2 2\ne 3 1\n", "graph body: edge (3,1) out of range"),
    ("bipartite 0 2\n", "graph body: both parts must be nonempty"),
    ("general\n", "line 1: expected 'general n'"),
    ("general 3 3\n", "line 1: expected 'general n'"),
    ("general x\n", "line 1: bad vertex count"),
    ("general 3\n1 2\n1 2 3\n", "line 3: expected 'i j'"),
    ("general 3\ne 1 2\n", "line 2: expected 'i j'"),
    ("general 3\n1 y\n", "line 2: bad edge indices"),
    ("general 3\n1 1\n", "graph body: loop at vertex 1"),
    ("general 3\n1 4\n", "graph body: edge (1,4) out of range"),
    ("general -1\n", "graph body: negative vertex count"),
])
def test_graph_file_error_messages(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph_file(text)
    assert str(info.value) == message


@pytest.mark.parametrize("value, same, text", [
    (Partition((3, 1)), Partition([3, 1]), "Partition((3, 1))"),
    (BipartiteGraph(2, 3, (1, 7)),
     BipartiteGraph.from_edges(2, 3, [(2, 3), (1, 1), (2, 1), (2, 2)]),
     "BipartiteGraph(m=2, n=3, rows=(1, 7))"),
    (Graph(3, [(1, 2), (2, 3)]), Graph(3, [(3, 2), (2, 1)]),
     "Graph(vcount=3, edges=2)"),
], ids=["Partition", "BipartiteGraph", "Graph"])
def test_value_type_contract(value, same, text):
    # immutable, slotted, picklable and hashable by value; repr unchanged
    for name in getattr(value, "_fields", ("parts",)):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
    assert value == same and hash(value) == hash(same)
    assert repr(value) == text


def test_make_and_replace_go_through_the_checks():
    # a named tuple's _make and _replace would build around __new__; the
    # graph types route both through it, so a bad field raises and a good
    # one is normalized like any constructed graph
    g = BipartiteGraph(2, 2, [3, 1])
    with pytest.raises(ValueError, match="out of range"):
        g._replace(rows=[3, 7])
    h = g._replace(rows=[1, 3])
    assert type(h) is BipartiteGraph and h.rows == (1, 3)
    assert h == BipartiteGraph(2, 2, [1, 3]) and hash(h) == hash(BipartiteGraph(2, 2, [1, 3]))
    assert pickle.loads(pickle.dumps(h)) == h
    assert BipartiteGraph._make([1, 2, [2]]) == BipartiteGraph(1, 2, (2,))
    with pytest.raises(ValueError, match="expected 2 rows"):
        BipartiteGraph._make([2, 2, [1]])
    general = Graph(3, [(1, 2)])
    with pytest.raises(ValueError, match="loop"):
        general._replace(edges=[(2, 2)])
    moved = general._replace(edges=[(3, 2), (2, 1)])
    assert moved == Graph(3, [(1, 2), (2, 3)]) and hash(moved) == hash(Graph(3, [(1, 2), (2, 3)]))
    assert pickle.loads(pickle.dumps(moved)) == moved
