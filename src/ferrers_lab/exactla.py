"""Exact linear algebra on one fraction-free integer kernel.

The kernel is one Bareiss elimination over Python integers (Bareiss 1968),
``_bareiss``, which may carry a right-hand block B.  It has three public
views: ``det_int`` carries none and eliminates below each pivot for the
determinant; ``solve_int`` runs the Gauss-Jordan form on ``[A | B]`` for
det(A) and adj(A) B, for example one adjugate column with B a unit column;
and ``det_adj_int`` is the solve with B = I, the determinant and the
adjugate together.  Every view refuses an entry that is not an integer
value.  Both g-inverses of a connected-graph Laplacian L with tree count
tau are integer matrices over one denominator:

* Moore-Penrose: n^2 tau L^+ = adj(L + J) - tau J, with J all ones;
* bordered at vertex i: the inverse of L_i (row and column i removed) is
  adj(L_i) / tau.

Each build checks its input (integer, symmetric, zero row sums), checks the
kernel's determinant against the cofactor tree count (the caller's, when it
passes one), and certifies the
result with an exact integer identity; a failed check raises
``InternalCheckError``.  Every matrix the runtime computes with is a list
of integer rows, and a rational result is integer rows over one
denominator; ``RatMatrix`` is left for the tests and the benchmark
tracer.  All matrices are sized for desk scale.
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


def det_adj_int(rows):
    """Determinant and adjugate of a nonsingular integer matrix: the solve
    view with the identity as right-hand block.

    Returns ``(det, adj)`` with ``adj`` a list of integer rows; raises
    ValueError for a singular matrix.
    """
    n = len(rows)
    return solve_int(rows, [[int(i == j) for j in range(n)] for i in range(n)])


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


def _integer_laplacian(rows) -> list:
    """``rows`` as integer lists, checked Laplacian-shaped.

    Square and nonempty, integer entries, symmetric, zero row sums; raises
    ValueError otherwise.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("need a nonempty square matrix")
    lap = _int_rows(rows)
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


def moore_penrose_laplacian(laplacian, tau: int | None = None) -> GInverse:
    """Exact Moore-Penrose inverse of a connected-graph Laplacian.

    ``laplacian`` is a sequence of rows with integer entries.
    With J the all-ones matrix and tau the tree count, det(L + J) = n^2 tau
    and M = adj(L + J) - tau J = n^2 tau L^+, an integer matrix.  The result
    is certified exactly: L M = d I - n tau J with d = n^2 tau, M symmetric
    and M 1 = 0, which with L symmetric and L 1 = 0 give all four Penrose
    conditions for M / d.  A disconnected graph (tau = 0) raises ValueError.
    A caller that holds tau already passes it, and it is checked against
    det(L + J) all the same.
    """
    lap = _integer_laplacian(laplacian)
    n = len(lap)
    if tau is None:
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


def bordered_ginverse(laplacian, i: int, tau: int | None = None) -> GInverse:
    """G-inverse of a connected-graph Laplacian with row/column ``i`` zeroed.

    ``laplacian`` is a sequence of rows with integer entries.
    The principal submatrix L_i with vertex ``i`` (1-based) removed has
    determinant tau and inverse adj(L_i) / tau, embedded back with zeros;
    the result H satisfies L @ H @ L == L.  It is certified exactly by
    L_i adj(L_i) = tau I.  A caller that holds tau already passes it, and it
    is checked against det(L_i) all the same.
    """
    lap = _integer_laplacian(laplacian)
    n = len(lap)
    if not 1 <= i <= n:
        raise ValueError("pivot vertex out of range")
    k = i - 1
    if tau is None:
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

