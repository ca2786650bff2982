import itertools
import math

import pytest

from ferrers_lab import (
    BipartiteGraph,
    BudgetExceeded,
    Partition,
    canonical_code,
    degree_class_max,
    enumerate_class,
    ferrers_from_partition,
    graph_from_code,
    is_ferrers,
    spectral_radius,
    spectral_search,
    tau,
    verify_ferrers_bound,
)
from ferrers_lab import search
from ferrers_lab.graphs import _rows_connected
from ferrers_lab.search import (
    ClassSpec,
    _classes_mn,
    _code_rows,
    _Counter,
    _twin_masks,
)

from conftest import (
    bipartite_cycle,
    complete_bipartite,
    example_staircase,
    inflate_tau_of,
    random_connected_bipartite,
    shuffle_bipartite,
)


def test_canonical_code_relabeling_invariance(rng):
    for base in (example_staircase(), complete_bipartite(2, 3), bipartite_cycle(3)):
        code = canonical_code(base)
        for _ in range(100):
            assert canonical_code(shuffle_bipartite(base, rng)) == code


def test_canonical_code_random_graphs(rng):
    for _ in range(30):
        g = random_connected_bipartite(rng)
        code = canonical_code(g)
        for _ in range(5):
            assert canonical_code(shuffle_bipartite(g, rng)) == code
        rebuilt = graph_from_code(code)
        assert canonical_code(rebuilt) == code


def test_canonical_code_part_swap():
    g = complete_bipartite(1, 2)
    assert canonical_code(g.transpose()) != canonical_code(g)  # parts differ in size
    # equal part sizes: swapping parts must not change the code
    lopsided = BipartiteGraph(2, 2, [0b11, 0b00])
    assert lopsided.degrees_u() != sorted(lopsided.degrees_v())
    assert canonical_code(lopsided) == canonical_code(lopsided.transpose())


def test_canonical_code_separates_same_degree_sequence():
    # same degree sequences, different spanning tree counts
    specs = ClassSpec.all_connected_bipartite(8)
    by_degrees = {}
    witness = None
    for g in enumerate_class(specs):
        key = (tuple(sorted(g.degrees_u())), tuple(sorted(g.degrees_v())), g.m, g.n)
        other = by_degrees.setdefault(key, g)
        if other is not g and tau(other) != tau(g):
            witness = (other, g)
            break
    assert witness is not None
    a, b = witness
    assert canonical_code(a) != canonical_code(b)


def test_canonical_code_size_limit():
    with pytest.raises(ValueError):
        canonical_code(BipartiteGraph(1, 13, [0]))


def _bruteforce_key(g, swap):
    """Minimum serialized matrix over explicit permutation orbits."""
    def fixed(mat):
        best = None
        for cp in itertools.permutations(range(mat.n)):
            rows = []
            for r in mat.rows:
                rows.append(sum(((r >> cp[j]) & 1) << j for j in range(mat.n)))
            rows.sort()
            cand = (mat.m, mat.n, tuple(rows))
            if best is None or cand < best:
                best = cand
        return best

    key = fixed(g)
    if swap and g.m == g.n:
        key = min(key, fixed(g.transpose()))
    return key


def test_canonical_code_complete_cross_validation():
    # every binary matrix of the given shapes: the partition into
    # canonical-code classes must equal the brute-force orbit partition
    for m, n in ((2, 2), (3, 3), (2, 4), (3, 4)):
        by_code = {}
        by_brute = {}
        for bits in range(1 << (m * n)):
            rows = [(bits >> (i * n)) & ((1 << n) - 1) for i in range(m)]
            g = BipartiteGraph(m, n, rows)
            by_code.setdefault(canonical_code(g), set()).add(g.rows)
            by_brute.setdefault(_bruteforce_key(g, swap=True), set()).add(g.rows)
        assert sorted(by_code.values(), key=sorted) == \
            sorted(by_brute.values(), key=sorted), (m, n)


def _random_rows(rng, m, n):
    density = rng.random()
    return tuple(sum(1 << j for j in range(n) if rng.random() < density)
                 for _ in range(m))


def test_code_is_nondecreasing_and_prefix_closed(rng):
    # what orderly generation rests on: the code is sorted, its first k
    # values are the code of those k rows, and each value fills the low end
    # of the twin-column groups of the values above it
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        code = _code_rows(_random_rows(rng, m, n), n)
        assert list(code) == sorted(code)
        for k in range(1, m + 1):
            assert _code_rows(code[:k], n) == code[:k]
            assert code[k - 1] in [0] + _twin_masks(code[:k - 1], n)


def test_code_search_bound(rng):
    # a search bounded from the start returns min(code, bound)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, m, n)
        code = _code_rows(rows, n)
        i = rng.randrange(m)
        bounds = [code, rows, _code_rows(_random_rows(rng, m, n), n),
                  _random_rows(rng, m, n)]
        for step in (-1, 1):
            if 0 <= code[i] + step < 1 << n:
                bounds.append(code[:i] + (code[i] + step,) + code[i + 1:])
        for bound in bounds:
            assert _code_rows(rows, n, bound) == min(code, bound), (rows, bound)


def test_enumerate_kpqe_hand_case():
    classes = enumerate_class(ClassSpec.kpqe(2, 2, 3))
    assert len(classes) == 1
    assert tau(classes[0]) == 1  # the 4-vertex path


def test_enumerate_all_connected_bipartite_4():
    classes = enumerate_class(ClassSpec.all_connected_bipartite(4))
    expected = {
        canonical_code(complete_bipartite(1, 1)),
        canonical_code(complete_bipartite(1, 2)),
        canonical_code(complete_bipartite(1, 3)),
        canonical_code(complete_bipartite(2, 2)),  # C4
        canonical_code(BipartiteGraph(2, 2, [0b11, 0b01])),  # P4
    }
    assert {canonical_code(g) for g in classes} == expected


def test_enumerate_codes_strictly_increasing():
    classes = enumerate_class(ClassSpec.all_connected_bipartite(6))
    codes = [canonical_code(g) for g in classes]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_enumerate_degree_class_contains_staircase():
    classes = enumerate_class(ClassSpec.degree_class(Partition((3, 3, 2, 1))))
    target = canonical_code(example_staircase())
    assert target in {canonical_code(g) for g in classes}
    for g in classes:
        assert sorted(g.degrees_u()) == [1, 2, 3, 3]
        assert all(d >= 1 for d in g.degrees_v())


def test_enumerate_degree_class_two_rows():
    classes = enumerate_class(ClassSpec.degree_class(Partition((2, 1))))
    assert len(classes) == 2


@pytest.mark.parametrize("degrees, message", [
    ((), "nonempty"),
    ((2, 0), "positive"),
])
def test_degree_class_spec_rejects_bad_sequences(degrees, message):
    with pytest.raises(ValueError, match=message):
        ClassSpec.degree_class(degrees)


def naive_connected_bipartite_count(max_vertices):
    """Independent oracle: all labeled graphs, filtered, deduped brute force."""
    total = 0
    for n in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            g = {v: set() for v in range(n)}
            for a, b in edges:
                g[a].add(b)
                g[b].add(a)
            # connectivity
            stack, reached = [0], {0}
            while stack:
                v = stack.pop()
                for w in g[v]:
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            if len(reached) != n:
                continue
            # bipartiteness by 2-coloring
            color = {0: 0}
            stack = [0]
            ok = True
            while stack and ok:
                v = stack.pop()
                for w in g[v]:
                    if w not in color:
                        color[w] = color[v] ^ 1
                        stack.append(w)
                    elif color[w] == color[v]:
                        ok = False
                        break
            if not ok:
                continue
            edge_set = {frozenset(e) for e in edges}
            key = min(
                tuple(sorted(
                    (min(p[a], p[b]), max(p[a], p[b])) for a, b in edge_set
                ))
                for p in perms
            )
            seen.add(key)
        total += len(seen)
    return total


def _reference_level(m, n, keep=None, popcounts=None):
    """Unpruned growth: every mask (zero included) under every parent,
    deduped by the parts-fixed code of the partial (cross-validated
    against brute force above); {code: first-seen rows}."""
    level = {(): ()}
    for depth in range(m):
        nxt = {}
        for rows in level.values():
            masks = range(1 << n)
            if popcounts is not None:
                allowed = popcounts(rows)
                masks = sorted((x for x in masks if x.bit_count() in allowed),
                               key=int.bit_count)
            for mask in masks:
                cand = rows + (mask,)
                if keep is not None and not keep(cand):
                    continue
                nxt.setdefault(_code_rows(cand, n), cand)
        level = nxt
    return level


def _reference_dedupe(graphs):
    by_code = {}
    for g in graphs:
        by_code.setdefault(canonical_code(g), g)
    return [by_code[c] for c in sorted(by_code)]


def _reference_enumerate(spec):
    """Grow with every mask, filter at full height, dedupe after."""
    out = []
    if spec.kind == "kpqe":
        p, q, e = spec.p, spec.q, spec.e

        def keep(rows):
            used = sum(r.bit_count() for r in rows)
            return used <= e <= used + (p - len(rows)) * q

        for rows in _reference_level(p, q, keep=keep).values():
            g = BipartiteGraph(p, q, rows)
            if g.edge_count() == e and 0 not in g.degrees_u() + g.degrees_v():
                out.append(g)
    elif spec.kind == "degree_class":
        degs = sorted(spec.degrees)

        def popcounts(rows):
            left = list(degs)
            for r in rows:
                left.remove(r.bit_count())
            return set(left)

        for ny in range(degs[-1], sum(degs) + 1):
            for rows in _reference_level(len(degs), ny, popcounts=popcounts).values():
                g = BipartiteGraph(len(degs), ny, rows)
                if 0 not in g.degrees_v():
                    out.append(g)
    else:
        top = spec.max_vertices
        for m in range(1, top // 2 + 1):
            for n in range(m, top - m + 1):
                for rows in _reference_level(m, n).values():
                    g = BipartiteGraph(m, n, rows)
                    if g.is_connected():
                        out.append(g)
    return _reference_dedupe(out)


def _spec_id(spec):
    if spec.kind == "kpqe":
        return "kpqe-%d-%d-%d" % (spec.p, spec.q, spec.e)
    if spec.kind == "degree_class":
        return "degrees-" + ".".join(map(str, spec.degrees))
    return "connected-%d" % spec.max_vertices


@pytest.mark.parametrize("spec", [
    ClassSpec.kpqe(2, 2, 3), ClassSpec.kpqe(2, 4, 5), ClassSpec.kpqe(3, 3, 5),
    ClassSpec.kpqe(3, 4, 7), ClassSpec.kpqe(3, 4, 10), ClassSpec.kpqe(4, 4, 9),
    ClassSpec.kpqe(4, 5, 10),
    ClassSpec.degree_class(Partition((2, 1))),
    ClassSpec.degree_class(Partition((2, 2, 2))),
    ClassSpec.degree_class(Partition((3, 2, 1))),
    ClassSpec.degree_class(Partition((3, 3, 3))),
    ClassSpec.degree_class(Partition((3, 3, 2, 1))),
    ClassSpec.degree_class(Partition((2, 2, 2, 2))),
    ClassSpec.all_connected_bipartite(2), ClassSpec.all_connected_bipartite(5),
    ClassSpec.all_connected_bipartite(9),
], ids=_spec_id)
def test_enumeration_matches_reference_growth(spec):
    # same representatives, row for row, in the same order
    ours = [(g.m, g.n, g.rows) for g in enumerate_class(spec)]
    ref = [(g.m, g.n, g.rows) for g in _reference_enumerate(spec)]
    assert ours == ref


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 3), (3, 4), (4, 3), (2, 5)])
def test_classes_mn_level_order_matches_reference(m, n):
    # the pruned growth keeps every zero-free class of the full growth, with
    # the same first-seen representative, in the same order
    ref = [rows for rows in _reference_level(m, n).values() if 0 not in rows]
    assert list(_classes_mn(m, n, _Counter(10 ** 6)).values()) == ref


@pytest.mark.parametrize("spec", [
    ClassSpec.kpqe(3, 4, 6), ClassSpec.kpqe(4, 4, 8),
    ClassSpec.degree_class(Partition((2, 1, 1, 1))),
    ClassSpec.degree_class(Partition((3, 3, 2, 1))),
    ClassSpec.all_connected_bipartite(8),
], ids=_spec_id)
def test_representatives_are_their_own_codes(spec):
    # growth keeps a candidate only in canonical form (parts fixed)
    graphs = enumerate_class(spec)
    assert graphs
    for g in graphs:
        assert _code_rows(g.rows, g.n) == g.rows


@pytest.mark.parametrize("spec, candidates", [
    (ClassSpec.all_connected_bipartite(9), 2688),
    (ClassSpec.kpqe(4, 5, 10), 1365),
    (ClassSpec.degree_class(Partition((3, 3, 2, 1))), 1121),
], ids=lambda value: _spec_id(value) if isinstance(value, ClassSpec) else None)
def test_enumeration_candidate_counts(spec, candidates):
    # a parent is extended only by its twin-group fills no less than its
    # last row; the guard admits exactly the candidates examined
    enumerate_class(spec, guard=candidates)
    with pytest.raises(BudgetExceeded):
        enumerate_class(spec, guard=candidates - 1)


def test_rows_connected_matches_graph_connectivity():
    # the bit-row test, zero rows included, against the components of the
    # general graph
    for m, n in ((1, 3), (2, 3), (3, 3), (3, 4), (4, 3)):
        full = (1 << n) - 1
        for rows in itertools.product(range(1 << n), repeat=m):
            g = BipartiteGraph(m, n, rows)
            expected = g.to_graph().is_connected()
            assert _rows_connected(rows, full) == expected, (m, n, rows)
            assert g.is_connected() == expected, (m, n, rows)


def test_connected_bipartite_counts_match_oeis_a005142():
    # connected bipartite graphs on 2..10 vertices, OEIS A005142
    per_order = {}
    for g in enumerate_class(ClassSpec.all_connected_bipartite(10)):
        per_order[g.m + g.n] = per_order.get(g.m + g.n, 0) + 1
    assert [per_order[v] for v in range(2, 11)] == \
        [1, 1, 3, 5, 17, 44, 182, 730, 4032]


def test_enumeration_guard_reports_progress():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_class(ClassSpec.all_connected_bipartite(8), guard=500)
    progress = info.value.progress
    assert sorted(progress) == ["candidates", "classes", "columns", "rows_done"]
    assert progress["candidates"] == 501
    assert 1 <= progress["columns"] <= 7
    assert 0 <= progress["rows_done"] < progress["columns"]
    assert progress["classes"] >= 1


def test_enumeration_matches_naive_oracle():
    ours = len(enumerate_class(ClassSpec.all_connected_bipartite(6)))
    assert ours == naive_connected_bipartite_count(6)


def test_verify_ferrers_bound_small():
    report = verify_ferrers_bound(7)
    assert report.counterexamples == []
    assert report.examined == 27 + 44
    assert report.details["equality_non_ferrers"] == []
    assert report.details["equality_ferrers"] > 0
    assert report.checked_property == "tree_count_le_degree_product"


def test_verify_ferrers_bound_deterministic_across_jobs():
    a = verify_ferrers_bound(6, jobs=1)
    b = verify_ferrers_bound(6, jobs=2)
    assert a.extremal == b.extremal
    assert a.counterexamples == b.counterexamples
    assert a.examined == b.examined


def test_verify_ferrers_bound_budget():
    with pytest.raises(BudgetExceeded):
        verify_ferrers_bound(11)


def test_spectral_search_worked_example():
    report = spectral_search(3, 4, 10)
    assert len(report.extremal) == 1
    assert report.counterexamples == []
    g2 = BipartiteGraph(3, 4, [0b1111, 0b0111, 0b0111])
    assert report.extremal[0] == canonical_code(g2)
    assert abs(report.details["lambda_max"] - 3.0592) <= 5e-4
    assert report.details["one_vertex_extension_shape"] == [True]


def test_spectral_search_runner_up_value_present():
    values = sorted(
        spectral_radius(g) for g in enumerate_class(ClassSpec.kpqe(3, 4, 10))
    )
    assert any(abs(v - 3.0204) <= 5e-4 for v in values)
    assert any(abs(v - 3.0592) <= 5e-4 for v in values)


def test_spectral_search_small_grid():
    # connected maximizers are staircase graphs throughout; the only
    # is_ferrers failures are disconnected unions of complete blocks,
    # which the report surfaces as counterexamples
    for p in range(2, 4):
        for q in range(p, 5):
            for e in range(2, p * q):
                report = spectral_search(p, q, e)
                if report.examined == 0:
                    assert e < q  # too few edges to cover every column
                    continue
                for g, connected in zip(report.extremal_graphs,
                                        report.details["maximizer_connected"]):
                    if connected:
                        assert is_ferrers(g), (p, q, e)
                    # strict inequality: class excludes complete bipartite
                    assert spectral_radius(g) < math.sqrt(e) - 1e-9
                assert report.counterexamples == [
                    canonical_code(g)
                    for g in report.extremal_graphs
                    if not is_ferrers(g)
                ]


def test_spectral_search_disconnected_corner():
    # the unique 2-edge subgraph of K_{2,2} without isolated vertices is
    # the perfect matching: the maximizer exists but is not a staircase
    report = spectral_search(2, 2, 2)
    assert report.examined == 1
    assert len(report.counterexamples) == 1
    assert report.details["maximizer_connected"] == [False]


def test_spectral_search_empty_class():
    report = spectral_search(2, 4, 3)  # 3 edges cannot cover 4 columns
    assert report.examined == 0
    assert report.extremal == [] and report.counterexamples == []
    assert report.details["lambda_max"] is None


def test_spectral_search_validates_and_budgets():
    with pytest.raises(ValueError):
        ClassSpec.kpqe(1, 4, 3)
    with pytest.raises(ValueError):
        ClassSpec.kpqe(2, 2, 4)
    with pytest.raises(BudgetExceeded):
        spectral_search(5, 5, 10)


def test_degree_class_max_staircase_attains():
    report = degree_class_max(Partition((3, 3, 2, 1)))
    assert report.counterexamples == []
    assert report.details["staircase_attains_max"]


def test_degree_class_max_complete_unique():
    # the class ranges over every column-part size (16 classes for (3,3,3));
    # the complete bipartite staircase is the unique maximizer
    report = degree_class_max(Partition((3, 3, 3)))
    assert report.examined == 16
    assert report.details["staircase_attains_max"]
    assert len(report.extremal) == 1
    assert abs(report.details["lambda_max"] - 3.0) <= 1e-9


def test_degree_class_max_two_rows():
    report = degree_class_max(Partition((2, 1)))
    assert report.examined == 2
    assert report.details["staircase_attains_max"]
    golden = (1 + math.sqrt(5)) / 2
    assert abs(report.details["lambda_max"] - golden) <= 1e-9


def test_verify_ferrers_bound_reports_the_counterexample(monkeypatch):
    plain = verify_ferrers_bound(6, jobs=1)
    cycle = canonical_code(bipartite_cycle(3))  # tau 6 < invariant 64/9
    assert cycle not in plain.extremal
    monkeypatch.setattr(search, "_ferrers_check_one", inflate_tau_of(cycle))
    report = verify_ferrers_bound(6, jobs=1)
    assert report.counterexamples == [cycle]
    assert [canonical_code(g) for g in report.counterexample_graphs] == [cycle]
    assert report.extremal == plain.extremal
    assert report.details == plain.details


def test_verify_ferrers_bound_surfaces_non_ferrers_equality(monkeypatch):
    plain = verify_ferrers_bound(6, jobs=1)
    k33 = canonical_code(complete_bipartite(3, 3))  # tau = invariant = 81
    assert k33 in plain.extremal
    assert plain.details["equality_non_ferrers"] == []
    orig = search.is_ferrers
    monkeypatch.setattr(search, "is_ferrers",
                        lambda g: orig(g) and canonical_code(g) != k33)
    report = verify_ferrers_bound(6, jobs=1)
    assert report.details == {
        "equality_ferrers": plain.details["equality_ferrers"] - 1,
        "equality_non_ferrers": [k33.hex()],
    }
    assert report.extremal == plain.extremal
    assert report.counterexamples == []


def test_degree_class_max_reports_a_beaten_staircase(monkeypatch):
    degrees = Partition((3, 3, 2, 1))
    staircase = canonical_code(ferrers_from_partition(degrees, 3))
    orig = search.spectral_radius
    monkeypatch.setattr(
        search, "spectral_radius",
        lambda g: orig(g) - 1 if canonical_code(g) == staircase else orig(g))
    report = degree_class_max(degrees, jobs=1)
    assert report.details["staircase_attains_max"] is False
    assert staircase not in report.extremal
    assert report.counterexamples == [staircase]
    assert report.counterexample_graphs == [graph_from_code(staircase)]
    assert report.extremal == [canonical_code(g) for g in report.extremal_graphs]


def test_spectral_search_empty_class_details():
    report = spectral_search(2, 4, 3, jobs=1)
    assert report.examined == 0
    assert report.extremal_graphs == [] and report.counterexample_graphs == []
    assert report.details == {
        "lambda_max": None,
        "maximizer_count": 0,
        "one_vertex_extension_shape": [],
        "maximizer_connected": [],
    }
