"""Exact resistance distance and edge-deletion invariance checks.

Resistance between two vertices is computed two independent ways, and the
two must agree exactly or the call raises ``InternalCheckError``.  The
second route is always the ratio of Laplacian minors,
R(i, j) = det L_{ij} / tau.  The first depends on the caller: a one-off
``resistance(G, i, j)`` grounds vertex j and solves L_j y = d e_i for one
column, certified by its exact residual and by det(L_j) = tau, and reads
R = y_i / d (Klein and Randic 1993); the equivalence checks, which build
the Moore-Penrose inverse anyway, read it off that inverse with the
diagonal-plus-cross term formula, once per unordered pair.

A one-off query on a general ``Graph`` eliminates the grounded Laplacian
itself, with d = det(L_j).  A ``BipartiteGraph`` never does: with the
smaller part as rows, it solves the Schur complement of the column block
(``trees._schur_block``, of side at most min(m, n)), lifts that solution
to L_j y = d e_i with d = P det(P S), and certifies the lift on the full
grounded Laplacian, read off the bit rows.  Its det(L_j) comes from the
same block and is checked against the tree count of a block that grounds
another vertex, and both minors of its ratio come from the same builder.

``edge_deletion_equivalence`` evaluates, in exact rational arithmetic, the
eleven equivalent statements characterizing when deleting one edge leaves
the resistance across another edge unchanged.  The "for any g-inverse"
statements are certified with two structurally different g-inverses, the
Moore-Penrose one and a bordered one, each read off one grounded adjugate
per graph and certified; equality for one carries to all of them.

The module also verifies the two identities driving the staircase-graph
tree-count formula: an explicit certificate vector w with L w equal to an
edge incidence vector, and the four-way tree-count factorization
tau(G\\e) * tau(G\\f) = tau(G) * tau(G\\{e,f}).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .budget import DEFAULT_THM71_VERTICES, admit
from .exactla import (
    GInverse,
    InternalCheckError,
    _grounded_adjugate,
    _sparse_matmul,
    bordered_ginverse,
    det_int,
    moore_penrose_laplacian,
    solve_int,
    tree_count,
)
from .graphs import BipartiteGraph, Graph, ferrers_from_partition, laplacian
from .partitions import Partition
from .search import _code_rows, _pmap
from .trees import _schur_block, _schur_count, tau


class _GraphCtx:
    """Per-graph cache of the exact objects the equivalence checks reuse;
    a one-off resistance on a general graph takes its tau and minor ratio
    from one too."""

    def __init__(self, graph):
        self.graph = graph
        self._bordered = {}
        self._without = {}
        self._resistance = {}

    def without(self, edge) -> "_GraphCtx":
        """The context of the graph with ``edge`` deleted, built once."""
        if edge not in self._without:
            self._without[edge] = _GraphCtx(self.graph.delete_edge(edge))
        return self._without[edge]

    @functools.cached_property
    def lap_int(self) -> list:
        # lazy: a deletion built only for its connectivity needs none
        return laplacian(self.graph)

    @functools.cached_property
    def grounded(self):
        return _grounded_adjugate(self.lap_int, self.tau)

    @functools.cached_property
    def mp(self) -> GInverse:
        return moore_penrose_laplacian(self.lap_int, grounded=self.grounded)

    def bordered(self, pivot: int) -> GInverse:
        if pivot not in self._bordered:
            self._bordered[pivot] = bordered_ginverse(self.lap_int, pivot,
                                                      grounded=self.grounded)
        return self._bordered[pivot]

    @functools.cached_property
    def tau(self) -> int:
        return tree_count(self.lap_int)

    def minor_det(self, drop) -> int:
        drop = set(k - 1 for k in drop)
        return det_int(
            [
                [x for j, x in enumerate(row) if j not in drop]
                for i, row in enumerate(self.lap_int)
                if i not in drop
            ]
        )

    def checked(self, i: int, j: int, value: Fraction) -> Fraction:
        """``value``, a first route's R(i, j), once the minor ratio agrees."""
        # minor_det([i]) is tau by the matrix-tree theorem, cached already
        return _agreed(value, Fraction(self.minor_det([i, j]), self.tau))

    def resistance(self, i: int, j: int) -> Fraction:
        """R(i, j) off the Moore-Penrose inverse, once per unordered pair."""
        key = (i, j) if i < j else (j, i)
        if key not in self._resistance:
            mp = self.mp
            plus = mp.numerators
            a, b = i - 1, j - 1
            via_mp = Fraction(plus[a][a] + plus[b][b] - 2 * plus[a][b], mp.denominator)
            self._resistance[key] = self.checked(i, j, via_mp)
        return self._resistance[key]


def _agreed(value: Fraction, via_det: Fraction) -> Fraction:
    """``value``, a first route's resistance, once the minor ratio agrees."""
    if value != via_det:
        raise InternalCheckError(
            "resistance routes disagree: %s vs %s" % (value, via_det)
        )
    return value


def resistance(G, i: int, j: int) -> Fraction:
    """Exact resistance distance between distinct vertices of a connected graph.

    Grounds vertex j and solves for one column of the grounded inverse,
    scaled to integers, with no g-inverse built; the minor ratio checks the
    result.  A ``BipartiteGraph`` does both on Schur complements of its
    column block, with no elimination larger than its smaller part; a
    general ``Graph`` on its Laplacian.
    """
    if i == j:
        raise ValueError("resistance needs two distinct vertices")
    if not (1 <= i <= G.vcount and 1 <= j <= G.vcount):
        raise ValueError("vertex out of range")
    if not G.is_connected():
        raise ValueError("resistance requires a connected graph")
    if isinstance(G, BipartiteGraph):
        return _bipartite_resistance(G, i, j)
    ctx = _GraphCtx(G)
    b = j - 1
    grounded = [row[:b] + row[j:] for r, row in enumerate(ctx.lap_int) if r != b]
    a = i - 1 if i < j else i - 2
    d, y = solve_int(grounded, [[int(r == a)] for r in range(len(grounded))])
    if d != ctx.tau:
        raise InternalCheckError("det(L_%d) = %d, but tau = %d" % (j, d, ctx.tau))
    if _sparse_matmul(grounded, y) != [[d if r == a else 0] for r in range(len(grounded))]:
        raise InternalCheckError(
            "grounded certificate failed: L_%d y != tau e_%d" % (j, i)
        )
    return ctx.checked(i, j, Fraction(y[a][0], d))


def _grounded_block(G: BipartiteGraph, du, dv, grounded):
    """The kept rows and ``trees._schur_block`` of the Laplacian minor of
    ``G`` that grounds the 0-based vertices ``grounded``, rows first."""
    keep = [u for u in range(G.m) if u not in grounded]
    cols = 0
    for g in grounded:
        if g >= G.m:
            cols |= 1 << (g - G.m)
    return (keep,) + _schur_block([G.rows[u] for u in keep],
                                  [du[u] for u in keep], dv, cols)


def _bipartite_resistance(G: BipartiteGraph, i: int, j: int) -> Fraction:
    """R(i, j) of a connected bipartite graph, the smaller part as rows.

    With vertex j grounded, the Schur block P S of ``_schur_block`` is
    solved for P S z = delta r, where r is P e_i for a row source and
    column c of B' times P/d_c for a column source c, and delta = det(P S).
    The lift y_U = P z, y_V = diag(P/d_v) (B'^T z + delta e_c) solves
    L_j y = d e_i with d = P delta; that residual is certified on the full
    grounded Laplacian, read off the bit rows, and proves R = y_i / d.
    det(L_j) = scale delta / P^k must equal tau, counted by
    ``trees._schur_count`` on the block that grounds another vertex (the
    last row, else the first row, else the first column), and the minor
    ratio det(L_ij) / tau, from the block that grounds both vertices, must
    agree.
    """
    if G.m > G.n:
        # the rows become the columns: u_k is now v_k, and v_k is now u_k
        a, b = (x + G.n - 1 if x <= G.m else x - G.m - 1 for x in (i, j))
        G = G.transpose()
    else:
        a, b = i - 1, j - 1
    m, n = G.m, G.n
    du, dv = G.degrees_u(), G.degrees_v()
    keep, p, block, scale = _grounded_block(G, du, dv, {b})
    if a < m:
        right = [[p if u == a else 0] for u in keep]
    else:
        bit, w = 1 << (a - m), p // dv[a - m]
        right = [[w if G.rows[u] & bit else 0] for u in keep]
    delta, solution = solve_int(block, right)
    z = [0] * m
    for u, (x,) in zip(keep, solution):
        z[u] = x
    edges = [(u - 1, m + c - 1) for u, c in G.edges()]
    y = [p * x for x in z] + [0] * n
    if a >= m:
        y[a] = delta
    for u, v in edges:
        if v != b:
            y[v] += z[u]
    for c, dc in enumerate(dv):
        y[m + c] *= p // dc
    d = p * delta
    # L y on every vertex but j, from the degrees and the edge list
    lap_y = [deg * x for deg, x in zip(du + dv, y)]
    for u, v in edges:
        lap_y[u] -= y[v]
        lap_y[v] -= y[u]
    lap_y[a] -= d
    if any(lap_y[:b] + lap_y[b + 1:]):
        raise InternalCheckError(
            "grounded certificate failed: L_%d y != d e_%d" % (j, i)
        )
    # tau grounds a vertex other than j: the last row, or else the first
    # row, or the first column when j is the one row
    other = m - 1 if b != m - 1 else 0 if m > 1 else m
    t = _schur_count(*_grounded_block(G, du, dv, {other})[1:])
    if scale * delta != t * p ** len(block):
        raise InternalCheckError("det(L_%d) = %s, but tau = %d"
                                 % (j, Fraction(scale * delta, p ** len(block)), t))
    _, p, block, scale = _grounded_block(G, du, dv, {a, b})
    return _agreed(Fraction(y[a], d),
                   Fraction(scale * det_int(block), p ** len(block) * t))


class EquivalenceReport(namedtuple("EquivalenceReport",
                                   "e f conditions all_agree witnesses")):
    """Outcome of the eleven-condition edge-deletion equivalence check."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def _coord_pair(ginv: GInverse, edge, a: int, b: int):
    """Coordinates ``a`` and ``b`` of G x, with x the incidence vector of the
    sorted ``edge``: +1 at its lower endpoint, -1 at the other."""
    num, d = ginv.numerators, ginv.denominator
    i, j = edge[0] - 1, edge[1] - 1
    return (Fraction(num[a - 1][i] - num[a - 1][j], d),
            Fraction(num[b - 1][i] - num[b - 1][j], d))


def edge_deletion_equivalence(G: Graph, e, f) -> EquivalenceReport:
    """Evaluate the eleven equivalent edge-deletion statements exactly.

    ``e`` and ``f`` must be vertex-disjoint edges of a graph on at least 4
    vertices whose single-edge deletions stay connected.  Returns all
    eleven booleans plus, for each g-inverse-based statement, the compared
    coordinates as exact rationals.
    """
    if isinstance(G, BipartiteGraph):
        G = G.to_graph()
    if G.vcount < 4:
        raise ValueError("graph must have at least 4 vertices")
    e = tuple(sorted(e))
    f = tuple(sorted(f))
    if e not in G.edges:
        raise ValueError("e=%r is not an edge" % (e,))
    if f not in G.edges:
        raise ValueError("f=%r is not an edge" % (f,))
    if set(e) & set(f):
        raise ValueError("e and f must not share a vertex")
    ctx = _GraphCtx(G)
    if not ctx.without(e).graph.is_connected():
        raise ValueError("deleting e disconnects the graph")
    if not ctx.without(f).graph.is_connected():
        raise ValueError("deleting f disconnects the graph")
    return _equivalence(ctx, e, f)


def _equivalence(ctx: _GraphCtx, e, f) -> EquivalenceReport:
    """The eleven statements for an admissible pair of sorted edges."""
    n = ctx.graph.vcount
    i, j = e
    k, l = f
    ctx_e = ctx.without(e)
    ctx_f = ctx.without(f)

    outside = [v for v in range(1, n + 1) if v not in {i, j, k, l}]
    pivot = outside[0] if outside else i

    conditions = {}
    witnesses = {}

    conditions["i"] = ctx.resistance(i, j) == ctx_f.resistance(i, j)
    conditions["ii"] = ctx.resistance(k, l) == ctx_e.resistance(k, l)
    conditions["iii"] = ctx_e.tau * ctx_f.tau == ctx.tau * ctx_e.without(f).tau

    def ginv_condition(name, ginvs_ctx, edge, a, b):
        entries = []
        verdict = True
        for ginv in ginvs_ctx:
            va, vb = _coord_pair(ginv, edge, a, b)
            entries.append({"ginverse": ginv.kind, "coords": (a, b), "values": (va, vb)})
            verdict = verdict and va == vb
        conditions[name] = verdict
        witnesses[name] = entries

    ginv_condition("iv", [ctx.mp], f, i, j)
    ginv_condition("v", [ctx.mp, ctx.bordered(pivot)], f, i, j)
    ginv_condition("vi", [ctx_f.mp], f, i, j)
    ginv_condition("vii", [ctx_f.mp, ctx_f.bordered(pivot)], f, i, j)
    ginv_condition("viii", [ctx.mp], e, k, l)
    ginv_condition("ix", [ctx.mp, ctx.bordered(pivot)], e, k, l)
    ginv_condition("x", [ctx_e.mp], e, k, l)
    ginv_condition("xi", [ctx_e.mp, ctx_e.bordered(pivot)], e, k, l)

    values = set(conditions.values())
    return EquivalenceReport(
        e=e,
        f=f,
        conditions=conditions,
        all_agree=len(values) == 1,
        witnesses=witnesses,
    )


CertificateReport = namedtuple("CertificateReport", "w_is_solution resistance_equal")


def _staircase_pair(lmbda: Partition):
    """The staircase of ``lmbda`` as a general graph, with m, n, p (the
    number of full rows) and k = lambda_{p+1}: the edge pair of the paper
    is e = {u_{p+1}, v_k}, f = {u_p, v_n}, which needs a row that is not full."""
    m = len(lmbda)
    n = lmbda[0] if m else 0
    G = ferrers_from_partition(lmbda, n).to_graph()
    p = sum(1 for part in lmbda if part == n)
    if p == m:
        raise ValueError("complete bipartite graph: no admissible edge pair")
    return G, m, n, p, lmbda[p]


def ferrers_edge_invariance(lmbda: Partition) -> CertificateReport:
    """Verify the explicit-certificate identities on a staircase graph.

    The graph has row degrees ``lmbda``, whose first p rows are full
    (degree n = lmbda_1) and row p+1 of degree k < n.  The vector

        w = (1/p) * [-1/n ... -1/n, (p-1)/n, 0 ... 0, -1]

    (p-1 leading entries, then position p, then zeros, then position m+n)
    must satisfy L w = x_f for f = {u_p, v_n}, checked in integers as
    L (p n w) = p n x_f; and deleting f must leave the resistance between
    u_{p+1} and v_k unchanged.  Both checks are exact.  When deleting f
    isolates v_n (p = 1), the resistance after deletion is taken on the
    other m + n - 1 vertices.
    """
    G, m, n, p, k = _staircase_pair(lmbda)
    total = m + n
    f_edge = (p, total)
    pn_w = [-1] * (p - 1) + [p - 1] + [0] * (total - p - 1) + [-n]
    pn_x_f = [0] * total
    pn_x_f[p - 1], pn_x_f[total - 1] = p * n, -p * n
    w_ok = [sum(a * b for a, b in zip(row, pn_w)) for row in laplacian(G)] == pn_x_f

    u_next, v_k = p + 1, m + k
    before = resistance(G, u_next, v_k)
    g_f = G.delete_edge(f_edge)
    if p == 1:
        # v_n, the last vertex, lost its only edge
        g_f = Graph(total - 1, g_f.edges)
    after = resistance(g_f, u_next, v_k)
    return CertificateReport(w_is_solution=w_ok, resistance_equal=before == after)


def ferrers_tree_identity(lmbda: Partition) -> bool:
    """Verify tau(G\\e) * tau(G\\f) == tau(G) * tau(G\\{e,f}) on a staircase graph.

    The pair is e = {u_{p+1}, v_k}, f = {u_p, v_n} with p the number of
    full rows and k the next row's degree.  The product form holds
    degenerately (0 = 0) when a deletion disconnects the graph.  Uses four
    independent Laplacian-cofactor computations.
    """
    G, m, n, p, k = _staircase_pair(lmbda)
    f = (p, m + n)
    g_e = G.delete_edge((p + 1, m + k))
    return tau(g_e) * tau(G.delete_edge(f)) == tau(G) * tau(g_e.delete_edge(f))


# ---------------------------------------------------------------------------
# small general-graph enumeration for the exhaustive equivalence scan,
# keyed by the ``search`` canonical code of each graph's incidence matrix
# ---------------------------------------------------------------------------


def _incidence_code(n, adj):
    """Canonical code of the vertex-edge incidence matrix of a graph.

    Row v has a bit for each edge at v.  Row and column permutations that
    carry one such matrix to another are exactly a vertex relabeling plus
    an edge reordering, so equal codes mean isomorphic graphs.
    """
    rows = [0] * n
    col = 0
    for v in range(n):
        for u in range(v + 1, n):
            if adj[v] >> u & 1:
                rows[v] |= 1 << col
                rows[u] |= 1 << col
                col += 1
    return _code_rows(rows, col)


@functools.cache
def _graph_reps(n):
    """All graphs on n vertices up to isomorphism, as adjacency-mask tuples."""
    if n == 1:
        reps = [(0,)]
    else:
        reps = []
        seen = set()
        for smaller in _graph_reps(n - 1):
            for nb in range(1 << (n - 1)):
                adj = [row | ((nb >> v & 1) << (n - 1)) for v, row in enumerate(smaller)]
                adj.append(nb)
                key = _incidence_code(n, adj)
                if key not in seen:
                    seen.add(key)
                    reps.append(tuple(adj))
    return reps


def connected_graphs(n: int) -> list:
    """Connected graphs on exactly n vertices, one per isomorphism class."""
    out = []
    for adj in _graph_reps(n):
        edges = [
            (v + 1, u + 1)
            for v in range(n)
            for u in range(v + 1, n)
            if adj[v] >> u & 1
        ]
        g = Graph(n, edges)
        if g.is_connected():
            out.append(g)
    return out


def _admissible_pairs(ctx: _GraphCtx) -> list:
    """Vertex-disjoint edge pairs whose single deletions stay connected."""
    edges = ctx.graph.sorted_edges()
    good = [e for e in edges if ctx.without(e).graph.is_connected()]
    good_set = set(good)
    return [
        (e, f)
        for idx, e in enumerate(edges)
        for f in edges[idx + 1:]
        if not set(e) & set(f) and e in good_set and f in good_set
    ]


def _scan_one(G: Graph):
    ctx = _GraphCtx(G)
    pairs = 0
    failures = []
    for e, f in _admissible_pairs(ctx):
        report = _equivalence(ctx, e, f)
        pairs += 1
        if not report.all_agree:
            failures.append(report.as_dict())
    return pairs, failures


def edge_deletion_equivalence_scan(max_n: int, jobs: int = 1,
                                   budget: int | None = None) -> dict:
    """Run the eleven-condition check over every connected graph up to max_n.

    Covers all isomorphism classes with 4..max_n vertices and every
    admissible edge pair; returns counts and any disagreeing reports
    (expected none), their witness values as exact rationals.  ``max_n``
    is capped at ``budget``, by default ``DEFAULT_THM71_VERTICES``; below
    4 there is no graph to check, and ``ValueError`` is raised.
    """
    if max_n < 4:
        raise ValueError("thm71 scan needs max_n >= 4, got %d" % max_n)
    admit(max_n, DEFAULT_THM71_VERTICES, budget, "thm71 scan of %d vertices")
    graphs = []
    for n in range(4, max_n + 1):
        graphs.extend(connected_graphs(n))
    pairs_total, failures = 0, []
    for pairs, fails in _pmap(_scan_one, graphs, jobs):
        pairs_total += pairs
        failures.extend(fails)
    return {
        "max_n": max_n,
        "graphs_checked": len(graphs),
        "pairs_checked": pairs_total,
        "all_agree_everywhere": not failures,
        "failures": failures,
    }
