"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ferrers_lab import BipartiteGraph, Graph, Partition, search
from ferrers_lab.exactla import RatMatrix


def partitions_of(total, max_part=None):
    """All partitions of ``total`` with parts at most ``max_part``."""
    max_part = total if max_part is None else min(max_part, total)
    if total == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def partitions_up_to(max_total, max_part=None):
    for total in range(1, max_total + 1):
        yield from partitions_of(total, max_part)


def connected_ferrers_partitions(max_vertices):
    """Partitions whose staircase graph is connected with at most
    ``max_vertices`` vertices: first part n, at most max_vertices - n parts."""
    for n in range(1, max_vertices):
        for rest in partitions_of_length_at_most(max_vertices - n - 1, n):
            yield Partition((n,) + rest)


def partitions_of_length_at_most(length, max_part):
    """All nonincreasing tuples with at most ``length`` parts in 1..max_part."""
    if length == 0:
        yield ()
        return
    yield ()
    for first in range(1, max_part + 1):
        for rest in partitions_of_length_at_most(length - 1, first):
            yield (first,) + rest


def bipartite_cycle(k):
    """The 2k-cycle as a k+k bipartite graph."""
    edges = []
    for i in range(1, k + 1):
        edges.append((i, i))
        edges.append((i % k + 1, i))
    return BipartiteGraph.from_edges(k, k, edges)


def complete_bipartite(m, n):
    return BipartiteGraph(m, n, [(1 << n) - 1] * m)


def shuffle_bipartite(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """A random row/column relabeling of the same bipartitioned graph."""
    row_perm = list(range(g.m))
    col_perm = list(range(g.n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    rows = [0] * g.m
    for i in range(g.m):
        src = g.rows[row_perm[i]]
        mask = 0
        for j in range(g.n):
            if src >> col_perm[j] & 1:
                mask |= 1 << j
        rows[i] = mask
    return BipartiteGraph(g.m, g.n, rows)


def random_connected_bipartite(rng: random.Random, max_m=4, max_n=4):
    """Rejection-sample a connected bipartite graph."""
    while True:
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        rows = [rng.randint(0, (1 << n) - 1) for _ in range(m)]
        try:
            g = BipartiteGraph(m, n, rows)
        except ValueError:
            continue
        if g.edge_count() and g.is_connected():
            return g


def random_connected_graph(rng: random.Random, max_n=7):
    while True:
        n = rng.randint(2, max_n)
        edges = [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        if g.is_connected():
            return g


@pytest.fixture
def rng():
    return random.Random(20240811)


def example_staircase() -> BipartiteGraph:
    """The 4x3 staircase with degrees (3,3,2,1) and (4,3,2)."""
    return BipartiteGraph(4, 3, [0b111, 0b111, 0b011, 0b001])


#: the staircase graph's 7x7 Laplacian in U-then-V vertex order
EXAMPLE_LAPLACIAN = [
    [3, 0, 0, 0, -1, -1, -1],
    [0, 3, 0, 0, -1, -1, -1],
    [0, 0, 2, 0, -1, -1, 0],
    [0, 0, 0, 1, -1, 0, 0],
    [-1, -1, -1, -1, 4, 0, 0],
    [-1, -1, -1, 0, 0, 3, 0],
    [-1, -1, 0, 0, 0, 0, 2],
]


def inflate_tau_of(target):
    """A ``search._ferrers_check_one`` that reports tau above the invariant
    for the class with canonical code ``target``."""
    orig = search._ferrers_check_one

    def check(g):
        t, inv, eq_ferrers = orig(g)
        if search.canonical_code(g) == target:
            return inv + 1, inv, False
        return t, inv, eq_ferrers

    return check


# ---------------------------------------------------------------------------
# connectivity oracle: union-find over an edge list, independent of the
# runtime's bit-row reach
# ---------------------------------------------------------------------------


def components(n, edges, forest=False):
    """Component vertex sets of the graph on vertices 1..n, by union-find;
    with ``forest`` set, None as soon as an edge closes a cycle."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            if forest:
                return None
            continue
        parent[rb] = ra
    comps = {}
    for v in range(1, n + 1):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


# ---------------------------------------------------------------------------
# rational oracles: plain Gaussian elimination over Fraction, independent of
# the runtime's fraction-free integer kernel
# ---------------------------------------------------------------------------


def det(a: RatMatrix) -> Fraction:
    """Exact determinant by Gaussian elimination over ``Fraction``."""
    if a.nrows != a.ncols:
        raise ValueError("matrix is not square")
    m = [list(row) for row in a.rows]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            result = -result
        mk = m[k]
        result *= mk[k]
        for r in range(k + 1, n):
            f = m[r][k] / mk[k]
            if f:
                m[r][k:] = [x - f * y for x, y in zip(m[r][k:], mk[k:])]
    return result


def solve(a: RatMatrix, b) -> list:
    """Exact solution of ``a @ x = b`` for square nonsingular ``a``, by
    Gauss-Jordan elimination over ``Fraction``."""
    n = a.nrows
    if a.ncols != n:
        raise ValueError("matrix is not square")
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    m = [list(row) + [Fraction(bi)] for row, bi in zip(a.rows, b)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        mk = m[k]
        inv = 1 / mk[k]
        mk[k:] = [x * inv for x in mk[k:]]
        for r in range(n):
            if r != k and m[r][k]:
                f = m[r][k]
                m[r][k:] = [x - f * y for x, y in zip(m[r][k:], mk[k:])]
    return [row[n] for row in m]


def identity(n, d=1) -> RatMatrix:
    """``d`` times the n x n identity."""
    return RatMatrix([[d if r == c else 0 for c in range(n)] for r in range(n)])


def is_symmetric(a: RatMatrix) -> bool:
    return a.rows == tuple(zip(*a.rows))


def as_matrix(ginv) -> RatMatrix:
    """A ``GInverse`` (integer rows over one denominator) as a ``RatMatrix``."""
    d = ginv.denominator
    return RatMatrix([[Fraction(x, d) for x in row] for row in ginv.numerators])


# ---------------------------------------------------------------------------
# Jacobi oracle: a frozen copy of the eigensolver every pinned spectrum was
# computed with (column-indexed rotations, eigenvectors always built).  The
# runtime solver must reproduce its floats bit for bit.
# ---------------------------------------------------------------------------


def _ordered_sum(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def jacobi_eigh_oracle(matrix):
    """(eigenvalues nonincreasing, aligned eigenvectors) by cyclic Jacobi."""
    n = len(matrix)
    a = [[float(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > 1e-12 * (1.0 + abs(a[i][j])):
                raise ValueError("matrix is not symmetric")
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    norm = math.sqrt(_ordered_sum(a[i][j] ** 2 for i in range(n) for j in range(n)))
    thresh = 1e-13 * max(1.0, norm)
    for _ in range(100):
        off = math.sqrt(_ordered_sum(
            a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    pairs = sorted(
        ((a[i][i], [v[k][i] for k in range(n)]) for i in range(n)),
        key=lambda kv: -kv[0],
    )
    return [p[0] for p in pairs], [p[1] for p in pairs]
