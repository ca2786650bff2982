"""Exact linear algebra on one fraction-free integer kernel.

The kernel is Bareiss elimination over Python integers (Bareiss 1968):
``det_int`` gives determinants and ``det_adj_int``, its Gauss-Jordan form,
gives the determinant and the adjugate together.  Both g-inverses of a
connected-graph Laplacian L with tree count tau are integer matrices over
one denominator:

* Moore-Penrose: n^2 tau L^+ = adj(L + J) - tau J, with J all ones;
* bordered at vertex i: the inverse of L_i (row and column i removed) is
  adj(L_i) / tau.

Each build checks its input (integer, symmetric, zero row sums), checks the
kernel's determinant against the cofactor tree count, and certifies the
result with an exact integer identity; a failed check raises
``InternalCheckError``.  Every matrix the runtime computes with is a list
of integer rows, and a rational result is integer rows over one
denominator; ``RatMatrix`` is left for the tests and the benchmark
tracer.  All matrices are sized for desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def det_int(rows) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Pivots on the first nonzero entry in column order; the empty matrix has
    determinant 1.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            ai, ak = a[i], a[k]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pivot - aik * ak[j]) // prev
            ai[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


def det_adj_int(rows):
    """Determinant and adjugate of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan elimination of ``[A | I]`` (Bareiss 1968):
    every division is exact, and after the last pivot ``d`` the left block
    is ``d * I`` and the right block ``d * A^{-1}``, with ``d`` the
    determinant up to the sign of the row swaps.  Columns left of the pivot
    are never touched again, since they stay zero off the diagonal.  Returns
    ``(det, adj)`` with ``adj`` a list of integer rows; raises ValueError for
    a singular matrix.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = [list(map(int, row)) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                raise ValueError("matrix is singular")
        mk = m[k]
        pivot = mk[k]
        tail = mk[k + 1:]
        for i in range(n):
            if i == k:
                continue
            mi = m[i]
            f = mi[k]
            if f:
                mi[k + 1:] = [(pivot * x - f * y) // prev
                              for x, y in zip(mi[k + 1:], tail)]
            else:
                mi[k + 1:] = [pivot * x // prev for x in mi[k + 1:]]
            mi[k] = 0
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def tree_count(lap) -> int:
    """Spanning-tree count of the graph with integer Laplacian rows ``lap``.

    The (1,1) cofactor, by the matrix-tree theorem; 0 when disconnected.
    """
    return det_int([row[1:] for row in lap[1:]])


@dataclass(frozen=True)
class GInverse:
    """A generalized inverse of a Laplacian, tagged by how it was built.

    ``kind`` is "moore_penrose" or "bordered(i)" with ``i`` the 1-based
    pivot vertex.  The inverse is ``numerators / denominator``, integer rows
    over one integer.
    """

    numerators: tuple
    denominator: int
    kind: str


def _integer_laplacian(rows) -> list:
    """``rows`` as integer lists, checked Laplacian-shaped.

    Square and nonempty, integer entries, symmetric, zero row sums; raises
    ValueError otherwise.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("need a nonempty square matrix")
    lap = [[int(x) for x in row] for row in rows]
    if lap != [list(row) for row in rows]:
        raise ValueError("Laplacian entries must be integers")
    if any(lap[i][j] != lap[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Laplacian is not symmetric")
    if any(sum(row) for row in lap):
        raise ValueError("Laplacian row sums are not all zero")
    return lap


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


def moore_penrose_laplacian(laplacian) -> GInverse:
    """Exact Moore-Penrose inverse of a connected-graph Laplacian.

    ``laplacian`` is a sequence of rows with integer entries.
    With J the all-ones matrix and tau the tree count, det(L + J) = n^2 tau
    and M = adj(L + J) - tau J = n^2 tau L^+, an integer matrix.  The result
    is certified exactly: L M = d I - n tau J with d = n^2 tau, M symmetric
    and M 1 = 0, which with L symmetric and L 1 = 0 give all four Penrose
    conditions for M / d.  A disconnected graph (tau = 0) raises ValueError.
    """
    lap = _integer_laplacian(laplacian)
    n = len(lap)
    tau = tree_count(lap)
    if tau == 0:
        raise ValueError("Laplacian of a disconnected graph has no Moore-Penrose"
                         " inverse by the rank-correction identity")
    d, adj = det_adj_int([[x + 1 for x in row] for row in lap])
    if d != n * n * tau:
        raise InternalCheckError("det(L + J) = %d, but n^2 tau = %d" % (d, n * n * tau))
    m = [[x - tau for x in row] for row in adj]
    ntau = n * tau
    expected = [[(d if r == c else 0) - ntau for c in range(n)] for r in range(n)]
    if (_sparse_matmul(lap, m) != expected or any(map(sum, m))
            or m != [list(col) for col in zip(*m)]):
        raise InternalCheckError("Moore-Penrose certificate failed:"
                                 " L M != d I - n tau J, or M not symmetric with M 1 = 0")
    return GInverse(tuple(map(tuple, m)), d, "moore_penrose")


def bordered_ginverse(laplacian, i: int) -> GInverse:
    """G-inverse of a connected-graph Laplacian with row/column ``i`` zeroed.

    ``laplacian`` is a sequence of rows with integer entries.
    The principal submatrix L_i with vertex ``i`` (1-based) removed has
    determinant tau and inverse adj(L_i) / tau, embedded back with zeros;
    the result H satisfies L @ H @ L == L.  It is certified exactly by
    L_i adj(L_i) = tau I.
    """
    lap = _integer_laplacian(laplacian)
    n = len(lap)
    if not 1 <= i <= n:
        raise ValueError("pivot vertex out of range")
    k = i - 1
    tau = tree_count(lap)
    if tau == 0:
        raise ValueError("principal submatrix is singular (graph disconnected?)")
    sub = [row[:k] + row[i:] for r, row in enumerate(lap) if r != k]
    d, adj = det_adj_int(sub)
    if d != tau:
        raise InternalCheckError("det(L_%d) = %d, but tau = %d" % (i, d, tau))
    if _sparse_matmul(sub, adj) != [
        [tau if r == c else 0 for c in range(n - 1)] for r in range(n - 1)
    ]:
        raise InternalCheckError("bordered certificate failed: L_%d adj != tau I" % i)
    rows = [row[:k] + [0] + row[k:] for row in adj]
    rows.insert(k, [0] * n)
    return GInverse(tuple(map(tuple, rows)), tau, "bordered(%d)" % i)

