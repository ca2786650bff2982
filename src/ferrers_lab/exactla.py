"""Exact linear algebra on one fraction-free integer kernel.

The kernel is one Bareiss elimination over Python integers (Bareiss 1968),
``_bareiss``, which may carry a right-hand block B.  Its two public views
refuse an entry that is not an integer value: ``det_int`` carries no block
and eliminates below each pivot for the determinant; ``solve_int`` runs the
Gauss-Jordan form on ``[A | B]`` for det(A) and adj(A) B.

Every g-inverse of a connected-graph Laplacian L on n vertices with tree
count tau is read off one elimination, N = adj(L_n) with the last vertex
grounded, embedded with a zero last row and column:

* Moore-Penrose: n^2 tau L^+ = (n I - J) N (n I - J), with J all ones;
* bordered at vertex i: L_i^{-1} = adj(L_i) / tau, where adj(L_i)_ab =
  N_ab - N_ai - N_ib + N_ii, since all g-inverses G of L give the same
  (e_a - e_i)^T G (e_b - e_i).

The elimination checks its input (integer, symmetric, zero row sums) and
det(L_n) against the tree count; each build certifies its result with an
exact integer identity, and a failed check raises ``InternalCheckError``.
A rational result is integer rows over one denominator; ``RatMatrix`` is
left for the tests and the benchmark tracer.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class InternalCheckError(AssertionError):
    """An internal cross-check failed.

    Two independent routes to one value disagreed, a result certificate did
    not hold, or a proven bound was violated: a defect in the program, never
    a counterexample to a theorem.
    """


class RatMatrix:
    """Dense matrix of exact rationals, the tests' rational product type.

    The runtime builds none: every matrix it computes with is a list of
    integer rows.  The class stays in the package, not in the tests,
    because the benchmark tracer (``perfbench/tracer.py``, ``METHODS``)
    binds ``__matmul__`` and ``matvec`` by name on every traced run; it
    leaves together with those entries, in a change to the benchmark.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows)) if other.rows else []
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]


def _int_rows(rows) -> list:
    """``rows`` as lists of ints; ValueError when an entry is not an integer
    value (2.0, ``Fraction(2, 1)`` and ``True`` are)."""
    m = [list(map(int, row)) for row in rows]
    # rows that are integer lists already pass the first, cheap comparison
    if m != rows and m != [list(row) for row in rows]:
        raise ValueError("matrix entries must be integers")
    return m


def _bareiss(rows, right=None):
    """Fraction-free elimination of a square integer matrix (Bareiss 1968).

    Pivots on the first nonzero entry at or below the diagonal, each row
    swap flipping the sign; every division is exact.  Without ``right`` it
    eliminates below each pivot only and returns ``(det, None)``.  With a
    right-hand block B (integer rows, one per row of A) it carries
    ``[A | B]`` and eliminates above and below each pivot, so after the
    last pivot ``d`` the left block is ``d * I`` and the right block
    ``d * A^{-1} B``, and it returns ``(det, adj(A) B)``; columns left of
    the pivot are never touched again, since they stay zero off the
    diagonal.  A singular matrix gives ``(0, None)``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = _int_rows(rows)
    jordan = right is not None
    if jordan:
        right = _int_rows(right)
        if len(right) != n or any(len(r) != len(right[0]) for r in right):
            raise ValueError("right-hand block does not match the matrix")
        for row, extra in zip(m, right):
            row += extra
    width = len(m[0]) if m else 0
    sign = prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0, None
            m[k], m[r] = m[r], m[k]
            sign = -sign
        mk = m[k]
        pivot = mk[k]
        for mi in m[:k] + m[k + 1:] if jordan else m[k + 1:]:
            f = mi[k]
            for j in range(k + 1, width):
                mi[j] = (mi[j] * pivot - f * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in m] if jordan else None


def det_int(rows) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination; 0 for
    a singular matrix, 1 for the empty one."""
    return _bareiss(rows)[0]


def solve_int(rows, right):
    """Determinant of a nonsingular integer matrix A and ``adj(A) right``,
    by the Gauss-Jordan form of the Bareiss elimination on ``[A | right]``.

    ``right`` is integer rows, one per row of A; the result solves
    ``A y = det(A) right`` in integers.  Raises ValueError for a singular
    matrix.
    """
    d, out = _bareiss(rows, right)
    if not d:
        raise ValueError("matrix is singular")
    return d, out


def tree_count(lap) -> int:
    """Spanning-tree count of the graph with integer Laplacian rows ``lap``.

    The (1,1) cofactor, by the matrix-tree theorem; 0 when disconnected.
    """
    return det_int([row[1:] for row in lap[1:]])


GInverse = namedtuple("GInverse", "numerators denominator kind")
GInverse.__doc__ = """A generalized inverse of a Laplacian, tagged by how it was built.

An immutable named tuple.  ``kind`` is "moore_penrose" or "bordered(i)"
with ``i`` the 1-based pivot vertex.  The inverse is
``numerators / denominator``, integer rows over one integer.
"""


def _sparse_matmul(a, b) -> list:
    """``a @ b`` for integer rows, skipping the zero entries of ``a``."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for t, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[t])]
        out.append(acc)
    return out


def _grounded_adjugate(laplacian, tau: int | None = None):
    """``(lap, tau, N)``, the one elimination behind every g-inverse of a
    connected-graph Laplacian: ``lap`` its rows, checked integer, square,
    symmetric and with zero row sums (else ValueError), tau its tree count,
    and N = adj(L_n), with the last vertex grounded, embedded with a zero
    last row and column; det(L_n) is checked against tau.
    """
    n = len(laplacian)
    if n == 0 or any(len(row) != n for row in laplacian):
        raise ValueError("need a nonempty square matrix")
    lap = _int_rows(laplacian)
    if any(lap[i][j] != lap[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Laplacian is not symmetric")
    if any(sum(row) for row in lap):
        raise ValueError("Laplacian row sums are not all zero")
    if tau is None:
        tau = tree_count(lap)
    if tau == 0:
        raise ValueError("Laplacian of a disconnected graph has no g-inverse"
                         " over its tree count")
    d, adj = solve_int([row[:-1] for row in lap[:-1]],
                       [[int(r == c) for c in range(n - 1)] for r in range(n - 1)])
    if d != tau:
        raise InternalCheckError("det(L_%d) = %d, but tau = %d" % (n, d, tau))
    for row in adj:
        row.append(0)
    adj.append([0] * n)
    return lap, tau, adj


def moore_penrose_laplacian(laplacian, tau: int | None = None, grounded=None) -> GInverse:
    """Exact Moore-Penrose inverse of a connected-graph Laplacian.

    ``laplacian`` is a sequence of rows with integer entries.  With N its
    grounded adjugate and J all ones, M = (n I - J) N (n I - J) = n^2 tau
    L^+, entry by entry n^2 N_ab - n (r_a + r_b) + s, with r the row sums
    of N and s their total.  It is certified exactly: L M = d I - n tau J
    with d = n^2 tau, M symmetric and M 1 = 0, which with L symmetric and
    L 1 = 0 give all four Penrose conditions for M / d.  A disconnected
    graph (tau = 0) raises ValueError.  A caller that holds the tree count
    tau passes it, still checked against det(L_n); one that builds several
    g-inverses of L passes ``_grounded_adjugate(L, tau)`` as ``grounded``.
    """
    lap, tau, adj = grounded or _grounded_adjugate(laplacian, tau)
    n = len(lap)
    sums = [sum(row) for row in adj]
    total = sum(sums)
    nn = n * n
    m = [[nn * x - n * (ra + rb) + total for x, rb in zip(row, sums)]
         for row, ra in zip(adj, sums)]
    d = nn * tau
    expected = [[(d if r == c else 0) - n * tau for c in range(n)] for r in range(n)]
    if (_sparse_matmul(lap, m) != expected or any(map(sum, m))
            or m != [list(col) for col in zip(*m)]):
        raise InternalCheckError("Moore-Penrose certificate failed:"
                                 " L M != d I - n tau J, or M not symmetric with M 1 = 0")
    return GInverse(tuple(map(tuple, m)), d, "moore_penrose")


def bordered_ginverse(laplacian, i: int, tau: int | None = None, grounded=None) -> GInverse:
    """G-inverse of a connected-graph Laplacian with row/column ``i`` zeroed.

    ``laplacian`` is a sequence of rows with integer entries.  L_i, with
    vertex ``i`` (1-based) removed, has inverse adj(L_i) / tau, embedded
    back with zeros as H, and L @ H @ L == L.  All g-inverses G of L give
    the same (e_a - e_i)^T G (e_b - e_i), so adj(L_i)_ab = N_ab - N_ai -
    N_ib + N_ii with N the grounded adjugate, certified by L_i adj(L_i) =
    tau I.  ``tau`` and ``grounded`` are as for ``moore_penrose_laplacian``.
    """
    lap, tau, adj = grounded or _grounded_adjugate(laplacian, tau)
    n = len(lap)
    if not 1 <= i <= n:
        raise ValueError("pivot vertex out of range")
    k = i - 1
    pivot = adj[k]
    rows = []
    for row in adj[:k] + adj[i:]:
        c = row[k] - pivot[k]
        rows.append([x - y - c for x, y in zip(row, pivot)])
    # with L_i nonsingular, this also certifies the zero column i
    sub = [row[:k] + row[i:] for row in lap[:k] + lap[i:]]
    if _sparse_matmul(sub, rows) != [
        [tau if r == c else 0 for c in range(n)] for r in range(n) if r != k
    ]:
        raise InternalCheckError("bordered certificate failed: L_%d adj != tau I" % i)
    rows.insert(k, [0] * n)
    return GInverse(tuple(map(tuple, rows)), tau, "bordered(%d)" % i)
