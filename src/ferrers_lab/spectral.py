"""Floating-point spectral quantities and bound checks.

Eigenvalues come from one cyclic Jacobi rotation kernel, ``_jacobi``
(dimensions here stay around twenty, where Jacobi is simple,
dependency-free and accurate).  It builds eigenvectors only when asked:
``jacobi_eigh`` asks, for the residual of ``spectrum_report`` (the one
reader of the normalized Laplacian), while the spectral radius and the
Laplacian spectrum read eigenvalues only and skip a third of every
rotation.  Both routes give the same floats.
Adjacency spectral radius is computed through the m x m Gram matrix B B'
of the biadjacency matrix, halving the dimension and keeping the computed
square nonnegative.  Verdicts that can be exact (density comparisons) use
rationals; everything floating carries an explicit tolerance.

``BoundReport`` is the one bound-comparison record of the package: the
checks here return it with mode "tolerance", and ``conjectures`` returns it
for its exact and tolerance checks alike.  Every lhs <= rhs check decides
its verdict through one of two constructors: ``BoundReport.exact`` compares
exactly, ``BoundReport.within`` up to a tolerance, by default ``TOL``, the
package's one float tolerance (defined in ``partitions``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exactla import InternalCheckError
from .graphs import BipartiteGraph, _closed_rows, _normalize, _reach, laplacian
from .partitions import TOL

_JACOBI_SWEEPS = 100
_JACOBI_EPS = 1e-13


def _jacobi(matrix, vt):
    """Diagonal of a float copy of ``matrix`` after cyclic Jacobi sweeps.

    Each rotation updates columns p and q of every row, then rows p and q,
    and, when ``vt`` is a list of rows (the identity on entry), rows p and q
    of ``vt`` too, so that ``vt[i]`` ends as the eigenvector of diagonal
    entry i.  With ``vt`` None no vectors are built.  Sweeps stop once the
    off-diagonal Frobenius norm falls below 1e-13 relative to the input
    norm, capped at 100 sweeps.  Every sum runs strictly left to right
    (``sum()`` of floats is compensated from Python 3.12 on), so the floats
    are the same on every supported version.
    """
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > 1e-12 * (1.0 + abs(a[i][j])):
                raise ValueError("matrix is not symmetric")
    sqrt = math.sqrt
    norm = 0.0
    for row in a:
        for x in row:
            norm += x ** 2
    thresh = _JACOBI_EPS * max(1.0, sqrt(norm))
    for _ in range(_JACOBI_SWEEPS):
        off = 0.0
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if i != j:
                    off += x ** 2
        if sqrt(off) <= thresh:
            break
        for p in range(n - 1):
            rp = a[p]
            for q in range(p + 1, n):
                apq = rp[q]
                if apq == 0.0:
                    continue
                rq = a[q]
                theta = (rq[q] - rp[p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                for k in range(n):
                    x, y = rp[k], rq[k]
                    rp[k] = c * x - s * y
                    rq[k] = s * x + c * y
                if vt is not None:
                    vp, vq = vt[p], vt[q]
                    for k in range(n):
                        x, y = vp[k], vq[k]
                        vp[k] = c * x - s * y
                        vq[k] = s * x + c * y
    return [a[i][i] for i in range(n)]


def _eigenvalues(matrix) -> list:
    """Eigenvalues of a symmetric matrix, nonincreasing, without vectors."""
    return sorted(_jacobi(matrix, None), key=lambda w: -w)


def jacobi_eigh(matrix):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues nonincreasing and
    eigenvectors as a list of vectors aligned with them.
    """
    n = len(matrix)
    vt = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    diag = _jacobi(matrix, vt)
    order = sorted(range(n), key=lambda i: -diag[i])
    return [diag[i] for i in order], [vt[i] for i in order]


def eigen_residual(matrix, value, vector) -> float:
    """Euclidean norm of A x - lambda x for one reported eigenpair, summed
    strictly left to right."""
    res = 0.0
    for row, xi in zip(matrix, vector):
        r = 0.0
        for aij, xj in zip(row, vector):
            r += aij * xj
        r -= value * xi
        res += r * r
    return math.sqrt(res)


def _max_residual(matrix, values, vectors) -> float:
    return max(
        (eigen_residual(matrix, w, x) for w, x in zip(values, vectors)),
        default=0.0,
    )


SpectrumReport = namedtuple(
    "SpectrumReport", "lambda_max laplacian_spectrum normalized_spectrum residual")


def _gram(G: BipartiteGraph):
    return [
        [
            (G.rows[i] & G.rows[j]).bit_count()
            for j in range(G.m)
        ]
        for i in range(G.m)
    ]


def _density(G: BipartiteGraph) -> Fraction:
    """Edge density e/(m*n), exact."""
    return Fraction(G.edge_count(), G.m * G.n)


def spectral_radius(G: BipartiteGraph) -> float:
    """Largest adjacency eigenvalue, as sqrt of the top Gram eigenvalue."""
    if G.edge_count() == 0:
        return 0.0
    return math.sqrt(max(_eigenvalues(_gram(G))[0], 0.0))


def laplacian_spectrum(G) -> list:
    """Laplacian eigenvalues, nonincreasing."""
    return _eigenvalues(laplacian(G))


def spectrum_report(G: BipartiteGraph) -> SpectrumReport:
    """All three spectra plus the worst eigenpair reconstruction residual.

    With an isolated vertex the normalized Laplacian is undefined: its
    spectrum is None and the residual covers the other two.
    """
    gram = _gram(G)
    gvals, gvecs = jacobi_eigh(gram)
    lap = laplacian(G)
    lvals, lvecs = jacobi_eigh(lap)
    residuals = [_max_residual(gram, gvals, gvecs), _max_residual(lap, lvals, lvecs)]
    nvals = None
    if all(row[i] for i, row in enumerate(lap)):
        nlap = _normalize(lap)
        nvals, nvecs = jacobi_eigh(nlap)
        residuals.append(_max_residual(nlap, nvals, nvecs))
    residual = max(residuals)
    return SpectrumReport(
        lambda_max=math.sqrt(max(gvals[0], 0.0)) if G.edge_count() else 0.0,
        laplacian_spectrum=lvals,
        normalized_spectrum=nvals,
        residual=residual,
    )


class BoundReport(namedtuple("BoundReport",
                             "name lhs rhs holds equality mode tol notes",
                             defaults=(0.0, None))):
    """One lhs <= rhs comparison with its arithmetic mode spelled out.

    ``mode`` is "exact" or "tolerance"; ``tol`` defaults to 0.0 and the
    ``notes`` dict to None, which ``as_dict`` omits as it omits an empty one.
    """

    __slots__ = ()

    @classmethod
    def exact(cls, name, lhs, rhs, notes=None) -> "BoundReport":
        """lhs <= rhs decided exactly."""
        return cls(name, lhs, rhs, lhs <= rhs, lhs == rhs, "exact",
                   notes=notes or {})

    @classmethod
    def within(cls, name, lhs, rhs, tol=TOL, notes=None) -> "BoundReport":
        """lhs <= rhs decided up to the absolute tolerance ``tol``."""
        return cls(name, lhs, rhs, lhs <= rhs + tol, abs(lhs - rhs) <= tol,
                   "tolerance", tol, notes or {})

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "equality": self.equality,
            "mode": self.mode,
        }
        if self.mode == "tolerance":
            out["tol"] = self.tol
        if self.notes:
            out["notes"] = self.notes
        return out


def sqrt_edge_bound_check(G: BipartiteGraph, lhs: float) -> BoundReport:
    """Adjacency spectral radius ``lhs`` of G against sqrt(edge count).

    The bound always holds; it is tight exactly on complete bipartite
    graphs (possibly with isolated vertices).
    """
    report = BoundReport.within("sqrt_edge_bound", lhs, math.sqrt(G.edge_count()), 1e-8)
    if not report.holds:
        raise InternalCheckError(
            "spectral radius %.12g exceeds sqrt(e) %.12g" % (lhs, report.rhs)
        )
    return report


def normalized_product_check(G: BipartiteGraph, mu: list) -> BoundReport:
    """Product of the vcount-2 middle normalized eigenvalues ``mu`` vs density.

    For connected bipartite graphs the spectrum runs from the top value 2
    down to a single 0; the product spans everything strictly between.
    Through tau = (prod(deg)/sum(deg)) * prod(nonzero mu) this comparison
    is the tree-count-vs-degree-product bound in spectral form, with
    equality on staircase graphs.  The density e/(m*n) is exact and is
    rounded to float only for the comparison (nearest double).
    """
    total = G.m + G.n
    if total < 3:
        raise ValueError("need at least 3 vertices")
    if not G.is_connected():
        raise ValueError("normalized spectrum requires a connected graph")
    product = 1.0
    for x in mu[1: total - 1]:
        product *= x
    rho = _density(G)
    return BoundReport.within("normalized_product", product, float(rho),
                              notes={"rho": rho})


def dense_cut_vertex_hypothesis(G: BipartiteGraph) -> bool:
    """True iff density >= 0.544 and some cut vertex has degree exactly 2.

    Density is compared exactly (544/1000).  Removing a degree-2 vertex
    splits its component into at most the two pieces holding its
    neighbours, so it is a cut vertex exactly when the bit-row reach of one
    neighbour in G - v misses the other.
    """
    rho = _density(G)
    if rho < Fraction(544, 1000):
        return False
    rows = _closed_rows(G.vcount, G.to_graph().edges)
    for v, row in enumerate(rows):
        keep = ~(1 << v)
        nbrs = row & keep
        if nbrs.bit_count() != 2:
            continue
        x = nbrs & -nbrs
        rest = [r & keep for w, r in enumerate(rows) if w != v]
        if not _reach(rest, rows[x.bit_length() - 1] & keep) & (nbrs ^ x):
            return True
    return False
