import gc
import itertools
import math
import tracemalloc

import pytest

from ferrers_lab import (
    BipartiteGraph,
    BudgetExceeded,
    Partition,
    canonical_code,
    degree_class_max,
    enumerate_class,
    ferrers_from_partition,
    is_ferrers,
    spectral_radius,
    spectral_search,
    tau,
    verify_ferrers_bound,
)
from ferrers_lab import budget, search
from ferrers_lab.graphs import _rows_connected, _transpose_rows
from ferrers_lab.search import (
    ClassSpec,
    _code_masks,
    _code_rows,
    _Counter,
    _grow,
    _is_code,
    _keeps_orientation,
    _twin_masks,
)

from conftest import (
    bipartite_cycle,
    complete_bipartite,
    components,
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
    for g in enumerate_class(specs).values():
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


def test_is_code_matches_bounded_search(rng):
    # the orderly test stops at the first smaller prefix, but decides what
    # the full bounded search decides; twin rows and columns are the cases
    # where it descends into several equal branches
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, m, n)
        if rng.random() < 0.5:
            twins = rng.randrange(m)
            rows = rows + rows[twins:twins + 1]
        if rng.random() < 0.5 and n < 6:
            j = rng.randrange(n)
            rows = tuple(r | (r >> j & 1) << n for r in rows)
            n += 1
        code = _code_rows(rows, n)
        for cand in (rows, code, tuple(sorted(rows))):
            assert _is_code(cand, n, cand) == (_code_rows(cand, n, cand) == cand), cand
        assert _is_code(code, n, code)
        # against another matrix's code: no labeling of rows below it
        least = _code_rows(_random_rows(rng, len(rows), n), n)
        for bound in (least, code):
            assert _is_code(rows, n, bound) == (_code_rows(rows, n, bound) == bound)


def test_code_masks_match_the_orderly_test_per_child(rng):
    # one walk of the parent's search decides every child; each child is
    # also decided alone by the orderly test.  Parents are random codes,
    # square or not, often with duplicate rows; the masks are every twin
    # fill at or above the floor (a duplicate of the last row among them),
    # or such a list filtered by degree or edge count as growth does
    shapes = set()
    for _ in range(500):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        if rng.random() < 0.25:
            n = max(1, m + 1)
        rows = _random_rows(rng, m, n)
        if m and rng.random() < 0.5:
            twins = rng.randrange(m)
            rows = rows[:-1] + rows[twins:twins + 1]
        rows = tuple(r for r in rows if r)
        rows = _code_rows(rows, n) if rows else ()
        floor = rows[-1] if rows else 0
        masks = [x for x in _twin_masks(rows, n) if x >= floor]
        kind = rng.choice(("all", "degree", "edges"))
        if kind == "degree":
            allowed = {rng.randint(1, n) for _ in range(2)}
            masks = [x for x in masks if x.bit_count() in allowed]
        elif kind == "edges":
            used = sum(r.bit_count() for r in rows)
            e = used + rng.randint(1, n)
            masks = [x for x in masks if used + x.bit_count() <= e]
        expected = [x for x in masks if _is_code(rows + (x,), n, rows + (x,))]
        assert _code_masks(rows, n, masks) == expected, (rows, n, masks)
        shapes.add((len(rows) + 1 == n, floor in masks, kind,
                    0 < len(expected) < len(masks)))
    assert {(True, True, "all", True), (False, True, "all", True),
            (False, False, "degree", True), (False, False, "edges", True)} <= shapes


def _random_square(rng, n, symmetric):
    rows = list(_random_rows(rng, n, n))
    if symmetric:  # equal to its transpose: a self-dual class
        rows = [sum((rows[max(i, j)] >> min(i, j) & 1) << j for j in range(n))
                for i in range(n)]
    return tuple(rows)


def test_part_swap_test_matches_bounded_search(rng):
    # a square code is kept iff no labeling of its transpose is below it,
    # which is what the bounded search over the transpose decides
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        code = _code_rows(_random_square(rng, n, rng.random() < 0.3), n)
        transpose = _transpose_rows(code, n)
        assert all(transpose[j] >> i & 1 == code[i] >> j & 1
                   for i in range(n) for j in range(n))
        keeps = _keeps_orientation(code, n)
        assert keeps == (_code_rows(transpose, n, code) == code), code
        self_dual = _code_rows(transpose, n) == code
        assert keeps or not self_dual
        outcomes.add((keeps, self_dual))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_enumerate_kpqe_hand_case():
    classes = enumerate_class(ClassSpec.kpqe(2, 2, 3))
    assert len(classes) == 1
    [path] = classes.values()
    assert tau(path) == 1  # the 4-vertex path


def test_enumerate_all_connected_bipartite_4():
    classes = enumerate_class(ClassSpec.all_connected_bipartite(4))
    expected = {
        canonical_code(complete_bipartite(1, 1)),
        canonical_code(complete_bipartite(1, 2)),
        canonical_code(complete_bipartite(1, 3)),
        canonical_code(complete_bipartite(2, 2)),  # C4
        canonical_code(BipartiteGraph(2, 2, [0b11, 0b01])),  # P4
    }
    assert set(classes) == expected


def test_enumerate_codes_strictly_increasing():
    classes = enumerate_class(ClassSpec.all_connected_bipartite(6))
    codes = list(classes)
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_enumerate_degree_class_contains_staircase():
    classes = enumerate_class(ClassSpec.degree_class(Partition((3, 3, 2, 1))))
    target = canonical_code(example_staircase())
    assert target in classes
    for g in classes.values():
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
    against brute force above); {code: code} in first-seen order, masks
    tried by value."""
    level = {(): ()}
    for depth in range(m):
        nxt = {}
        for rows in level.values():
            masks = range(1 << n)
            if popcounts is not None:
                allowed = popcounts(rows)
                masks = [x for x in masks if x.bit_count() in allowed]
            for mask in masks:
                cand = rows + (mask,)
                if keep is not None and not keep(cand):
                    continue
                code = _code_rows(cand, n)
                nxt.setdefault(code, code)
        level = nxt
    return level


def _reference_dedupe(graphs):
    """One graph per canonical code, the one with the least rows, sorted
    by canonical code."""
    by_code = {}
    for g in graphs:
        code = canonical_code(g)
        if code not in by_code or g.rows < by_code[code].rows:
            by_code[code] = g
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
    ClassSpec.kpqe(3, 4, 7), ClassSpec.kpqe(3, 4, 10), ClassSpec.kpqe(4, 4, 4),
    ClassSpec.kpqe(4, 4, 7), ClassSpec.kpqe(4, 4, 8), ClassSpec.kpqe(4, 4, 9),
    ClassSpec.kpqe(4, 4, 12), ClassSpec.kpqe(4, 4, 15), ClassSpec.kpqe(4, 5, 10),
    ClassSpec.degree_class(Partition((2, 1))),
    ClassSpec.degree_class(Partition((2, 2, 1))),
    ClassSpec.degree_class(Partition((2, 2, 2))),
    ClassSpec.degree_class(Partition((3, 2, 1))),
    ClassSpec.degree_class(Partition((3, 3, 3))),
    ClassSpec.degree_class(Partition((3, 3, 2, 1))),
    ClassSpec.degree_class(Partition((3, 3, 2, 2))),
    ClassSpec.degree_class(Partition((2, 2, 2, 2))),
    ClassSpec.degree_class(Partition((3, 2, 2, 1, 1))),
    ClassSpec.degree_class(Partition((4, 3, 2, 2, 1))),
    ClassSpec.all_connected_bipartite(2), ClassSpec.all_connected_bipartite(5),
    ClassSpec.all_connected_bipartite(9),
], ids=_spec_id)
def test_enumeration_matches_reference_growth(spec):
    # same representatives, row for row, in the same order
    ours = [(g.m, g.n, g.rows) for g in enumerate_class(spec).values()]
    ref = [(g.m, g.n, g.rows) for g in _reference_enumerate(spec)]
    assert ours == ref


@pytest.mark.parametrize("spec", [
    ClassSpec.all_connected_bipartite(8), ClassSpec.kpqe(4, 4, 8),
], ids=_spec_id)
def test_part_swap_needs_no_canonical_code(spec, monkeypatch):
    # the classes closed under the part swap are deduped by the local test
    # alone, without the full canonizer, and their searches report the
    # codes the enumeration carries
    calls = []
    orig = search.canonical_code
    monkeypatch.setattr(search, "canonical_code",
                        lambda *args: calls.append(args) or orig(*args))
    assert enumerate_class(spec)
    if spec.kind == "kpqe":
        assert spectral_search(spec.p, spec.q, spec.e).extremal
    else:
        assert verify_ferrers_bound(spec.max_vertices).extremal
    assert calls == []


@pytest.mark.parametrize("spec", [
    ClassSpec.all_connected_bipartite(8),
    *[ClassSpec.kpqe(p, p, e) for p in range(2, 5) for e in range(2, p * p)],
    ClassSpec.degree_class(Partition((2, 2, 1))),
    ClassSpec.degree_class(Partition((3, 2, 2))),
    ClassSpec.degree_class(Partition((3, 3, 2, 1))),
], ids=_spec_id)
def test_carried_codes_are_canonical_codes(spec):
    # the keys the enumeration hands out, against the full canonizer
    classes = enumerate_class(spec)
    assert list(classes) == [canonical_code(g) for g in classes.values()] \
        == sorted(classes)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("spec", [
    ClassSpec.kpqe(4, 6, 14),  # 290 classes: the pool reads a second batch
    ClassSpec.degree_class(Partition((3, 3, 2, 2, 1))),  # some keyed by canonical_code
    ClassSpec.all_connected_bipartite(9),
], ids=_spec_id)
def test_checked_classes_match_the_class_map(spec, jobs):
    # the check loop hands every class of the map to the check, and keeps
    # what it returns under the map's code, in the map's order
    classes = enumerate_class(spec)
    examined, kept = enumerate_class(spec, canonical_code, jobs)
    assert examined == len(classes) > 128
    assert list(kept) == list(classes)
    assert [g for g, _ in kept.values()] == list(classes.values())
    assert all(value == code for code, (_, value) in kept.items())
    assert enumerate_class(spec, lambda g: None) == (len(classes), {})


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 3), (3, 4), (4, 3), (2, 5)])
def test_classes_mn_level_order_matches_reference(m, n):
    # the pruned growth keeps every zero-free class of the full growth, with
    # the same first-seen representative, in the same order
    ref = [rows for rows in _reference_level(m, n).values() if 0 not in rows]
    counter = _Counter(10 ** 6)
    assert [rows + (x,) for rows, masks in _grow(n, m, counter) if len(rows) == m - 1
            for x in masks] == ref


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
    for g in graphs.values():
        assert _code_rows(g.rows, g.n) == g.rows


@pytest.mark.parametrize("spec, candidates", [
    (ClassSpec.all_connected_bipartite(9), 2688),
    (ClassSpec.kpqe(4, 5, 10), 1365),
    (ClassSpec.degree_class(Partition((3, 3, 2, 1))), 1121),
], ids=lambda value: _spec_id(value) if isinstance(value, ClassSpec) else None)
def test_enumeration_candidate_counts(spec, candidates, monkeypatch):
    # a parent is extended only by its twin-group fills no less than its
    # last row; the guard admits exactly the candidates examined
    monkeypatch.setattr(search, "CANDIDATE_GUARD", candidates)
    enumerate_class(spec)
    monkeypatch.setattr(search, "CANDIDATE_GUARD", candidates - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_class(spec)


def test_rows_connected_matches_graph_connectivity():
    # the bit-row test, zero rows included, against union-find components
    # of the general graph
    for m, n in ((1, 3), (2, 3), (3, 3), (3, 4), (4, 3)):
        full = (1 << n) - 1
        for rows in itertools.product(range(1 << n), repeat=m):
            g = BipartiteGraph(m, n, rows)
            h = g.to_graph()
            expected = len(components(h.vcount, h.edges)) == 1
            assert _rows_connected(rows, full) == expected, (m, n, rows)
            assert g.is_connected() == expected, (m, n, rows)
            assert h.is_connected() == expected, (m, n, rows)


def test_connected_bipartite_counts_match_oeis_a005142():
    # connected bipartite graphs on 2..10 vertices, OEIS A005142
    per_order = {}
    for g in enumerate_class(ClassSpec.all_connected_bipartite(10)).values():
        per_order[g.m + g.n] = per_order.get(g.m + g.n, 0) + 1
    assert [per_order[v] for v in range(2, 11)] == \
        [1, 1, 3, 5, 17, 44, 182, 730, 4032]


def test_enumeration_guard_reports_progress(monkeypatch):
    monkeypatch.setattr(search, "CANDIDATE_GUARD", 500)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_class(ClassSpec.all_connected_bipartite(8))
    progress = info.value.progress
    assert sorted(progress) == ["candidates", "classes", "columns", "nodes", "rows_done"]
    assert progress["candidates"] == 501
    assert 1 <= progress["columns"] <= 7
    assert 0 <= progress["rows_done"] < progress["columns"]
    assert progress["classes"] >= 1


def test_node_guard_bounds_each_canonizer_search(monkeypatch):
    # the guard counts the nodes of one search, not of the enumeration: the
    # 9-vertex scan makes hundreds of searches, none of 100 nodes, while
    # the 7 x 7 permutation matrix of D = 1^7 needs thousands for one
    monkeypatch.setattr(budget, "NODE_GUARD", 100)
    assert len(enumerate_class(ClassSpec.all_connected_bipartite(9))) == 983
    with pytest.raises(BudgetExceeded, match="visited more than 100 nodes") as info:
        enumerate_class(ClassSpec.degree_class(Partition((1,) * 7)))
    progress = info.value.progress
    assert sorted(progress) == ["candidates", "classes", "columns", "nodes", "rows_done"]
    assert progress["nodes"] > 100
    with pytest.raises(BudgetExceeded, match="visited more than 100 nodes"):
        canonical_code(BipartiteGraph(7, 7, [1 << i for i in range(7)]))


def test_enumeration_matches_naive_oracle():
    ours = len(enumerate_class(ClassSpec.all_connected_bipartite(6)))
    assert ours == naive_connected_bipartite_count(6)


def test_verify_ferrers_bound_small():
    report = verify_ferrers_bound(7)
    assert report.counterexamples == {}
    assert report.examined == 27 + 44
    assert report.details["equality_non_ferrers"] == []
    assert report.details["equality_ferrers"] == 35
    assert report.checked_property == "tree_count_le_degree_product"
    report = verify_ferrers_bound(8)
    assert report.counterexamples == {}
    assert report.details == {"equality_ferrers": 71, "equality_non_ferrers": []}


def test_verify_ferrers_bound_holds_little_beyond_its_classes():
    # the classes are checked one by one as growth hands them out, and
    # only the parents of the level being grown and the tight or failing
    # classes are kept, so the scan's traced peak stays within a quarter
    # of the class map it no longer builds (about 0.10; 0.82 when the
    # scan built the map and streamed only the checks).  The map is
    # read from a collected heap with empty free lists; the scan is traced
    # after an untraced one has filled them, since tracemalloc counts the
    # freed tuples they keep (about 0.4 MB, whatever the scan's size)
    spec = ClassSpec.all_connected_bipartite(10)
    gc.collect()
    tracemalloc.start()
    try:
        classes = enumerate_class(spec)
        size = tracemalloc.get_traced_memory()[0]
        del classes
        tracemalloc.stop()
        verify_ferrers_bound(10)
        tracemalloc.start()
        report = verify_ferrers_bound(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.examined == 5015
    assert peak <= 0.25 * size, (peak, size)


def test_verify_ferrers_bound_deterministic_across_jobs():
    a = verify_ferrers_bound(6, jobs=1)
    b = verify_ferrers_bound(6, jobs=2)
    assert a.extremal == b.extremal
    assert a.counterexamples == b.counterexamples
    assert a.examined == b.examined


@pytest.mark.parametrize("cpus, items, size", [
    (4, 3, 3), (4, 100, 4), (1, 100, None), (None, 100, None), (4, 1, None),
])
def test_pmap_caps_workers_at_cpus_and_items(monkeypatch, cpus, items, size):
    # a huge --jobs asks the pool for no more workers than CPUs or items,
    # and runs serially when that leaves one; the fake pool starts nothing
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, seq, chunksize=1):
            return (fn(x) for x in seq)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert list(search._pmap(abs, list(range(-items, 0)), 10 ** 6)) == list(range(items, 0, -1))
    assert sizes == ([] if size is None else [size])


def test_verify_ferrers_bound_budget():
    with pytest.raises(BudgetExceeded):
        verify_ferrers_bound(11)


def test_spectral_search_worked_example():
    report = spectral_search(3, 4, 10)
    assert len(report.extremal) == 1
    assert report.counterexamples == {}
    g2 = BipartiteGraph(3, 4, [0b1111, 0b0111, 0b0111])
    assert list(report.extremal) == [canonical_code(g2)]
    assert abs(report.details["lambda_max"] - 3.0592) <= 5e-4
    assert report.details["one_vertex_extension_shape"] == [True]


def test_spectral_search_runner_up_value_present():
    values = sorted(
        spectral_radius(g) for g in enumerate_class(ClassSpec.kpqe(3, 4, 10)).values()
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
                for g, connected in zip(report.extremal.values(),
                                        report.details["maximizer_connected"]):
                    if connected:
                        assert is_ferrers(g), (p, q, e)
                    # strict inequality: class excludes complete bipartite
                    assert spectral_radius(g) < math.sqrt(e) - 1e-9
                assert list(report.counterexamples) == [
                    code
                    for code, g in report.extremal.items()
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
    assert report.extremal == {} and report.counterexamples == {}
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
    assert report.counterexamples == {}
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
    assert list(report.counterexamples) == [cycle]
    assert [canonical_code(g) for g in report.counterexamples.values()] == [cycle]
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
    assert report.counterexamples == {}


def _beat_staircase(monkeypatch, degrees):
    """Lower the spectral radius of the staircase with row degrees
    ``degrees`` by 1; returns its canonical code."""
    staircase = canonical_code(ferrers_from_partition(degrees, degrees[0]))
    orig = search.spectral_radius
    monkeypatch.setattr(
        search, "spectral_radius",
        lambda g: orig(g) - 1 if canonical_code(g) == staircase else orig(g))
    return staircase


def test_degree_class_max_reports_a_beaten_staircase(monkeypatch):
    degrees = Partition((3, 3, 2, 1))
    staircase = _beat_staircase(monkeypatch, degrees)
    report = degree_class_max(degrees, jobs=1)
    assert report.details["staircase_attains_max"] is False
    assert staircase not in report.extremal
    assert list(report.counterexamples) == [staircase]
    # the staircase of 3,3,2,1 under its code rows
    assert list(report.counterexamples.values()) == [BipartiteGraph(4, 3, [1, 3, 7, 7])]
    assert list(report.extremal) == [canonical_code(g) for g in report.extremal.values()]


def test_degree_class_max_beaten_square_staircase_is_a_member(monkeypatch):
    # the staircase of a square class whose D is not self-conjugate is
    # reported as the class holds it, with row degrees D, under its full
    # code (the transpose, with rows 1, 7, 7, is not in the class)
    degrees = Partition((3, 2, 2))
    staircase = _beat_staircase(monkeypatch, degrees)
    report = degree_class_max(degrees, jobs=1)
    assert [code.hex() for code in report.counterexamples] == ["0303000100070007"]
    [g] = report.counterexamples.values()
    assert sorted(g.degrees_u(), reverse=True) == [3, 2, 2]
    assert canonical_code(g) == staircase and is_ferrers(g)


def test_spectral_search_empty_class_details():
    report = spectral_search(2, 4, 3, jobs=1)
    assert report.examined == 0
    assert report.extremal == {} and report.counterexamples == {}
    assert report.details == {
        "lambda_max": None,
        "maximizer_count": 0,
        "one_vertex_extension_shape": [],
        "maximizer_connected": [],
    }
