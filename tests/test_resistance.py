import importlib
import itertools
import random
from fractions import Fraction

import pytest

from ferrers_lab import (
    BipartiteGraph,
    ClassSpec,
    Graph,
    InternalCheckError,
    Partition,
    bordered_ginverse,
    connected_graphs,
    edge_deletion_equivalence,
    edge_deletion_equivalence_scan,
    enumerate_class,
    exactla,
    ferrers_edge_invariance,
    ferrers_from_partition,
    ferrers_tree_identity,
    laplacian,
    moore_penrose_laplacian,
    resistance,
)
from ferrers_lab import trees
from ferrers_lab.resistance import _GraphCtx, _admissible_pairs, _graph_reps, _incidence_code

from conftest import (
    as_matrix,
    bipartite_cycle,
    components,
    connected_ferrers_partitions,
    random_connected_graph,
)

K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
C4 = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def test_resistance_series_cases():
    assert resistance(Graph(2, [(1, 2)]), 1, 2) == 1
    assert resistance(Graph(3, [(1, 2), (2, 3)]), 1, 3) == 2


def test_resistance_cycle_parallel():
    # adjacent vertices of a 4-cycle: 1 ohm in parallel with 3 in series
    assert resistance(C4, 1, 2) == Fraction(3, 4)
    assert resistance(C4, 1, 3) == 1


def test_resistance_errors():
    with pytest.raises(ValueError):
        resistance(C4, 2, 2)
    with pytest.raises(ValueError):
        resistance(Graph(4, [(1, 2), (3, 4)]), 1, 3)


def test_resistance_ginverse_independence(rng):
    # diagonal readoff from a bordered g-inverse must match the
    # Moore-Penrose route and the minor-ratio route exactly
    for _ in range(8):
        g = random_connected_graph(rng, max_n=6)
        lap = laplacian(g)
        plus = as_matrix(moore_penrose_laplacian(lap))
        for i, j in itertools.combinations(range(1, g.vcount + 1), 2):
            r = resistance(g, i, j)
            h = as_matrix(bordered_ginverse(lap, i))
            assert h[j - 1, j - 1] == r
            assert plus[i - 1, i - 1] + plus[j - 1, j - 1] - 2 * plus[i - 1, j - 1] == r


def test_resistance_is_a_metric(rng):
    for _ in range(5):
        g = random_connected_graph(rng, max_n=6)
        vertices = range(1, g.vcount + 1)
        r = {
            (i, j): resistance(g, i, j)
            for i in vertices
            for j in vertices
            if i != j
        }
        for i, j in r:
            assert r[i, j] == r[j, i]
            assert r[i, j] > 0
        for i, j, k in itertools.permutations(vertices, 3):
            assert r[i, k] <= r[i, j] + r[j, k]


def test_resistance_matches_forest_count_oracle(rng):
    # resistance = (# spanning 2-forests separating i and j) / (# spanning
    # trees), both counted by brute-force subset enumeration
    for _ in range(5):
        g = random_connected_graph(rng, max_n=6)
        n = g.vcount
        edges = g.sorted_edges()
        trees = 0
        separating = {}
        for subset in itertools.combinations(edges, n - 1):
            if _is_spanning_tree(n, subset):
                trees += 1
        for i, j in itertools.combinations(range(1, n + 1), 2):
            count = 0
            for subset in itertools.combinations(edges, n - 2):
                comps = components(n, subset, forest=True)
                if comps is None or len(comps) != 2:
                    continue
                if (i in comps[0]) != (j in comps[0]):
                    count += 1
            separating[i, j] = count
        for (i, j), count in separating.items():
            assert resistance(g, i, j) == Fraction(count, trees)


def _is_spanning_tree(n, subset):
    comps = components(n, subset, forest=True)
    return comps is not None and len(comps) == 1


def test_foster_sum_rule(rng):
    for _ in range(8):
        g = random_connected_graph(rng, max_n=7)
        total = sum(resistance(g, a, b) for a, b in g.edges)
        assert total == g.vcount - 1


def test_edge_deletion_equality_case():
    # staircase (3,3,2,1): deleting {u2, v3} leaves r(u3, v2) unchanged
    g = ferrers_from_partition(Partition((3, 3, 2, 1)), 3).to_graph()
    assert resistance(g.delete_edge((2, 7)), 3, 6) == resistance(g, 3, 6)


def test_equivalence_k4_matching_pair():
    report = edge_deletion_equivalence(K4, (1, 2), (3, 4))
    assert report.all_agree
    assert all(report.conditions.values())
    assert set(report.conditions) == {
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi",
    }


def test_equivalence_witnesses_are_exact():
    report = edge_deletion_equivalence(K4, (1, 2), (3, 4))
    for entries in report.witnesses.values():
        for entry in entries:
            assert all(isinstance(v, Fraction) for v in entry["values"])


def test_equivalence_chorded_cycle():
    c6_chord = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
    for e, f in _admissible_pairs(_GraphCtx(c6_chord)):
        report = edge_deletion_equivalence(c6_chord, e, f)
        assert report.all_agree


def test_scan_builds_each_deletion_once(monkeypatch):
    # one G-e per edge and one G-e-f per pair, shared by all eleven conditions
    c6_chord = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
    expected_pairs = len(_admissible_pairs(_GraphCtx(c6_chord)))
    deleted = []
    orig = Graph.delete_edge
    monkeypatch.setattr(Graph, "delete_edge",
                        lambda self, edge: deleted.append(edge) or orig(self, edge))
    module = importlib.import_module("ferrers_lab.resistance")
    pairs, failures = module._scan_one(c6_chord)
    assert failures == [] and pairs == expected_pairs
    assert len(deleted) == len(c6_chord.edges) + pairs


def test_scan_counts_tau_once_per_context(monkeypatch):
    # the context's tau feeds both g-inverse builders, which recount none
    module = importlib.import_module("ferrers_lab.resistance")
    counted = []
    orig = module.tree_count
    monkeypatch.setattr(module, "tree_count", lambda lap: counted.append(lap) or orig(lap))
    monkeypatch.setattr(exactla, "tree_count", lambda lap: pytest.fail("builder recount"))
    c6_chord = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)])
    pairs, failures = module._scan_one(c6_chord)
    assert failures == [] and pairs > 0
    # the laps stay alive in the list, so distinct ids are distinct contexts
    assert counted and len({id(lap) for lap in counted}) == len(counted)


def test_context_resistance_once_per_unordered_pair(monkeypatch):
    module = importlib.import_module("ferrers_lab.resistance")
    minors = []
    orig = module._GraphCtx.minor_det
    monkeypatch.setattr(module._GraphCtx, "minor_det",
                        lambda self, drop: minors.append(drop) or orig(self, drop))
    ctx = module._GraphCtx(K4)
    assert ctx.resistance(1, 2) == ctx.resistance(2, 1) == ctx.resistance(1, 2)
    assert len(minors) == 1


def test_grounded_resistance_matches_moore_penrose_route():
    # the one-off route against the equivalence checks' route, on every
    # connected graph with 4 to 6 vertices and every ordered vertex pair
    module = importlib.import_module("ferrers_lab.resistance")
    checked = 0
    for n in range(4, 7):
        for g in connected_graphs(n):
            ctx = module._GraphCtx(g)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                assert resistance(g, i, j) == ctx.resistance(i, j), (g.edges, i, j)
                checked += 1
    assert checked == 6 * 12 + 21 * 20 + 112 * 30


def test_one_off_resistance_builds_no_ginverse(monkeypatch):
    # resistance and its caller solve for one grounded column only
    module = importlib.import_module("ferrers_lab.resistance")
    staircase = ferrers_from_partition(Partition((3, 3, 2, 1)), 3).to_graph()
    calls = [
        lambda: resistance(staircase, 4, 7),
        lambda: resistance(C4, 3, 1),
        lambda: ferrers_edge_invariance(Partition((3, 3, 2, 1))),
        lambda: ferrers_edge_invariance(Partition((3, 2))),
    ]
    usual = [call() for call in calls]

    def refuse(*args, **kwargs):
        raise RuntimeError("a g-inverse was built")

    for target in (module, exactla):
        monkeypatch.setattr(target, "moore_penrose_laplacian", refuse)
        monkeypatch.setattr(target, "bordered_ginverse", refuse)
    assert [call() for call in calls] == usual


def test_grounded_route_certificates(monkeypatch):
    module = importlib.import_module("ferrers_lab.resistance")
    orig = module.solve_int

    def wrong_det(rows, right):
        d, y = orig(rows, right)
        return 2 * d, [[2 * x for x in row] for row in y]

    def wrong_column(rows, right):
        d, y = orig(rows, right)
        y[-1][0] += 1
        return d, y

    # a column scaled with its determinant still solves L_j y = d e_i, and
    # gives the right ratio: only the comparison with tau catches it
    monkeypatch.setattr(module, "solve_int", wrong_det)
    with pytest.raises(InternalCheckError, match="but tau"):
        resistance(C4, 1, 3)
    monkeypatch.setattr(module, "solve_int", wrong_column)
    with pytest.raises(InternalCheckError, match="grounded certificate"):
        resistance(C4, 1, 3)


def test_general_route_minor_ratio_check(monkeypatch):
    module = importlib.import_module("ferrers_lab.resistance")
    orig = module._GraphCtx.minor_det
    monkeypatch.setattr(module._GraphCtx, "minor_det",
                        lambda self, drop: 2 * orig(self, drop))
    with pytest.raises(InternalCheckError, match="routes disagree"):
        resistance(C4, 1, 3)


def _both_orientations(g):
    return (g, g.transpose())


def test_bipartite_route_matches_general_route_every_class():
    # every ordered pair of every connected bipartite class on 2 to 7
    # vertices (A005142: 1 + 1 + 3 + 5 + 17 + 44 classes), as enumerated
    # with m <= n and transposed
    checked = 0
    for g in enumerate_class(ClassSpec.all_connected_bipartite(7)).values():
        for h in _both_orientations(g):
            general = h.to_graph()
            for i, j in itertools.permutations(range(1, h.vcount + 1), 2):
                assert resistance(h, i, j) == resistance(general, i, j), (h, i, j)
                checked += 1
    assert checked == 2 * (2 + 6 + 3 * 12 + 5 * 20 + 17 * 30 + 44 * 42)


def _random_bipartite(rng, m, n):
    while True:
        g = BipartiteGraph(m, n, [rng.getrandbits(n) for _ in range(m)])
        if g.is_connected():
            return g


@pytest.mark.parametrize("m, n", [(4, 6), (6, 4), (5, 5), (7, 9), (9, 7), (8, 8),
                                  (6, 16), (16, 6), (11, 11), (10, 12), (12, 10)])
def test_bipartite_route_seeded_shapes(m, n):
    # m < n, m = n and m > n (transposed and relabeled inside), with pairs
    # of every kind: row-row, row-column, column-row and column-column
    rng = random.Random(1000 * m + n)
    g = _random_bipartite(rng, m, n)
    general = g.to_graph()
    rows, cols = range(1, m + 1), range(m + 1, m + n + 1)
    pairs = [(1, m), (m, m + n), (m + n, 1), (m + 1, m + n)]
    for first, second in [(rows, rows), (rows, cols), (cols, rows), (cols, cols)]:
        for _ in range(3):
            i, j = rng.choice(first), rng.choice(second)
            if i != j:
                pairs.append((i, j))
    for i, j in pairs:
        assert resistance(g, i, j) == resistance(general, i, j), (g, i, j)


def test_bipartite_route_eliminates_within_the_smaller_part(monkeypatch):
    # no Bareiss elimination on the bipartite route has more than min(m, n)
    # rows, in either orientation and for every kind of pair
    sizes = []
    orig = exactla._bareiss
    monkeypatch.setattr(exactla, "_bareiss",
                        lambda rows, right=None: sizes.append(len(rows)) or orig(rows, right))
    rng = random.Random(7)
    for m, n in [(5, 9), (9, 5), (7, 7), (10, 12), (12, 10)]:
        g = _random_bipartite(rng, m, n)
        for i, j in [(1, 2), (1, m + 1), (m + 1, 1), (m + 1, m + n), (m + n, m)]:
            sizes.clear()
            resistance(g, i, j)
            assert sizes and max(sizes) <= min(m, n), (m, n, i, j, sizes)


def test_bipartite_route_checks_tau_on_another_grounding(monkeypatch):
    # det(L_j) is compared with the tree count of a block that grounds a
    # vertex other than j, never with a second elimination of its own
    # block: j the last row (here u_3, whose block [[11, -7], [-7, 11]]
    # the tree count grounding the last row eliminated again), and j the
    # one row of a star
    module = importlib.import_module("ferrers_lab.resistance")
    g = BipartiteGraph(3, 4, [0b1111, 0b0111, 0b0011])
    expected = resistance(g.to_graph(), 1, 3)
    eliminated = []
    orig = exactla._bareiss
    monkeypatch.setattr(exactla, "_bareiss", lambda rows, right=None:
                        eliminated.append(rows) or orig(rows, right))
    assert resistance(g, 1, 3) == expected
    assert eliminated.count([[11, -7], [-7, 11]]) == 1, eliminated
    grounded = []
    blocks = module._grounded_block
    monkeypatch.setattr(module, "_grounded_block", lambda G, du, dv, vertices:
                        grounded.append(vertices) or blocks(G, du, dv, vertices))
    rng = random.Random(3)
    graphs = [BipartiteGraph(1, 3, [0b111]), BipartiteGraph(3, 1, [1, 1, 1]),
              bipartite_cycle(3), _random_bipartite(rng, 4, 6), _random_bipartite(rng, 6, 4)]
    for g in graphs:
        for i, j in itertools.permutations(range(1, g.vcount + 1), 2):
            grounded.clear()
            resistance(g, i, j)
            assert len(grounded) == 3 and grounded[1] != grounded[0], (g, i, j, grounded)


def _corrupt_schur_weight(orig):
    # the weights of the first kept row's columns summed one short; the
    # block stays positive definite, so the solve still succeeds
    def broken(rows, du, dv, cols=0):
        p, block, scale = orig(rows, du, dv, cols)
        block[0][0] += 1
        return p, block, scale
    return broken


def test_bipartite_route_certificates(monkeypatch):
    module = importlib.import_module("ferrers_lab.resistance")
    orig = module.solve_int
    cycle = bipartite_cycle(3)  # 3 rows, so every grounded block has 2 or 3

    def wrong_det(rows, right):
        d, z = orig(rows, right)
        return 2 * d, [[2 * x for x in row] for row in z]

    def wrong_column(rows, right):
        d, z = orig(rows, right)
        z[-1][0] += 1
        return d, z

    usual = {(i, j): resistance(cycle, i, j) for i, j in [(1, 5), (4, 2), (1, 2), (4, 6)]}
    for i, j in usual:
        # a Schur solution scaled with its determinant still lifts to a
        # solution of L_j y = d e_i: only the comparison with tau catches it
        monkeypatch.setattr(module, "solve_int", wrong_det)
        with pytest.raises(InternalCheckError, match="but tau"):
            resistance(cycle, i, j)
        monkeypatch.setattr(module, "solve_int", wrong_column)
        with pytest.raises(InternalCheckError, match="grounded certificate"):
            resistance(cycle, i, j)
        monkeypatch.setattr(module, "solve_int", orig)
        # a wrong Schur block is solved consistently; the full grounded
        # Laplacian, read off the bit rows, is not fooled
        monkeypatch.setattr(module, "_schur_block",
                            _corrupt_schur_weight(trees._schur_block))
        with pytest.raises(InternalCheckError, match="grounded certificate"):
            resistance(cycle, i, j)
        monkeypatch.setattr(module, "_schur_block", trees._schur_block)
        # the minor ratio, the second route, on its own block
        monkeypatch.setattr(module, "det_int", lambda rows: 2 * exactla.det_int(rows))
        with pytest.raises(InternalCheckError, match="routes disagree"):
            resistance(cycle, i, j)
        monkeypatch.setattr(module, "det_int", exactla.det_int)
        assert resistance(cycle, i, j) == usual[i, j]


def test_equivalence_preconditions():
    with pytest.raises(ValueError, match="share"):
        edge_deletion_equivalence(K4, (1, 2), (2, 3))
    with pytest.raises(ValueError, match="not an edge"):
        edge_deletion_equivalence(C4, (1, 3), (2, 4))
    with pytest.raises(ValueError, match="at least 4"):
        edge_deletion_equivalence(Graph(3, [(1, 2), (2, 3), (1, 3)]), (1, 2), (2, 3))
    spoon = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)])
    with pytest.raises(ValueError, match="disconnects"):
        edge_deletion_equivalence(spoon, (1, 2), (4, 5))


def test_equivalence_scan_small():
    result = edge_deletion_equivalence_scan(5)
    assert result["all_agree_everywhere"]
    assert result["graphs_checked"] == 27  # 6 + 21 connected classes
    assert result["failures"] == []


def test_connected_graph_counts():
    # A001349; the n = 7 enumeration is cached and criterion 6 builds it too
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in expected.items():
        assert len(connected_graphs(n)) == count


def test_graph_class_counts():
    # A000088: all graphs on n vertices up to isomorphism
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert len(_graph_reps(n)) == count


def _adjacency(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def test_incidence_code_separates_c6_from_two_triangles():
    # both 2-regular on 6 vertices: the adjacency matrix read as a
    # biadjacency matrix would key them the same
    c6 = _adjacency(6, [(v, (v + 1) % 6) for v in range(6)])
    two_k3 = _adjacency(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert _incidence_code(6, c6) != _incidence_code(6, two_k3)


def test_incidence_code_invariant_under_relabeling(rng):
    for _ in range(25):
        n = rng.randint(1, 8)
        density = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < density]
        key = _incidence_code(n, _adjacency(n, edges))
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [(perm[a], perm[b]) for a, b in edges]
            assert _incidence_code(n, _adjacency(n, relabeled)) == key


def test_edge_deletion_never_decreases_resistance_exhaustive():
    # every connected graph up to 6 vertices, every non-cut edge, every pair
    for n in range(2, 7):
        for g in connected_graphs(n):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            before = {pair: resistance(g, *pair) for pair in pairs}
            for f in g.sorted_edges():
                reduced = g.delete_edge(f)
                if not reduced.is_connected():
                    continue
                for pair in pairs:
                    assert resistance(reduced, *pair) >= before[pair]


def test_certificate_vector_worked_example():
    report = ferrers_edge_invariance(Partition((3, 3, 2, 1)))
    assert report.w_is_solution
    assert report.resistance_equal


def test_certificate_vector_pendant_case():
    # p = 1: deleting the full-row edge isolates the last column vertex
    report = ferrers_edge_invariance(Partition((3, 2)))
    assert report.w_is_solution
    assert report.resistance_equal


def test_certificate_vector_hypothesis_errors():
    # p and k are read off lambda; only a complete bipartite graph (one
    # row included) has no admissible pair
    for parts in [(3, 3, 3), (3,)]:
        with pytest.raises(ValueError, match="complete"):
            ferrers_edge_invariance(Partition(parts))
    with pytest.raises(ValueError, match="nonempty"):
        ferrers_edge_invariance(Partition(()))


def test_certificate_vector_sweep():
    for lam in connected_ferrers_partitions(8):
        if len(set(lam)) == 1:
            continue  # complete bipartite: no admissible pair
        report = ferrers_edge_invariance(lam)
        assert report.w_is_solution and report.resistance_equal, lam


def test_runtime_builds_no_rational_matrix(monkeypatch):
    # every matrix the runtime computes with is integer rows; RatMatrix is
    # the tests' type only
    staircase = ferrers_from_partition(Partition((3, 3, 2, 1)), 3).to_graph()
    lap = laplacian(staircase)
    calls = [
        lambda: ferrers_edge_invariance(Partition((3, 2))),
        lambda: ferrers_edge_invariance(Partition((3, 3, 2, 1))),
        lambda: edge_deletion_equivalence(staircase, (3, 6), (2, 7)),
        lambda: resistance(staircase, 4, 7),
        lambda: moore_penrose_laplacian(lap),
        lambda: bordered_ginverse(lap, 3),
    ]
    usual = [call() for call in calls]

    def refuse(self, rows):
        raise RuntimeError("a RatMatrix was built")

    monkeypatch.setattr(exactla.RatMatrix, "__init__", refuse)
    with pytest.raises(RuntimeError):
        exactla.RatMatrix([[1]])
    assert [call() for call in calls] == usual
    assert usual[0].w_is_solution and usual[1].w_is_solution


def test_tree_identity_examples():
    assert ferrers_tree_identity(Partition((3, 3, 2, 1)))
    assert ferrers_tree_identity(Partition((2, 1)))
    with pytest.raises(ValueError, match="complete"):
        ferrers_tree_identity(Partition((3, 3, 3)))


def test_tree_identity_sweep():
    for lam in connected_ferrers_partitions(8):
        m, n = len(lam), lam[0]
        if m < 2 or sum(1 for part in lam if part == n) >= m:
            continue
        assert ferrers_tree_identity(lam), lam
