"""Floating-point spectral quantities and bound checks.

Eigenvalues come from a cyclic Jacobi rotation solver (dimensions here
stay around twenty, where Jacobi is simple, dependency-free and accurate).
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
from dataclasses import dataclass, field
from fractions import Fraction

from .exactla import InternalCheckError
from .graphs import BipartiteGraph, _closed_rows, _reach, laplacian, normalized_laplacian
from .partitions import TOL

_JACOBI_SWEEPS = 100
_JACOBI_EPS = 1e-13


def _ordered_sum(values) -> float:
    """Sum floats strictly left to right.

    Python 3.12 made ``sum()`` of floats compensated, which moves the last
    digits of reported residuals; plain order keeps reports byte-identical
    on every supported version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def jacobi_eigh(matrix):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues nonincreasing and
    eigenvectors as a list of vectors aligned with them.  Sweeps rotate
    every off-diagonal pair until the off-diagonal Frobenius norm falls
    below 1e-13 relative to the input norm, capped at 100 sweeps.
    """
    n = len(matrix)
    a = [[float(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > 1e-12 * (1.0 + abs(a[i][j])):
                raise ValueError("matrix is not symmetric")
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    norm = math.sqrt(_ordered_sum(a[i][j] ** 2 for i in range(n) for j in range(n)))
    thresh = _JACOBI_EPS * max(1.0, norm)
    for _ in range(_JACOBI_SWEEPS):
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


def eigen_residual(matrix, value, vector) -> float:
    """Euclidean norm of A x - lambda x for one reported eigenpair."""
    n = len(matrix)
    res = 0.0
    for i in range(n):
        r = _ordered_sum(matrix[i][j] * vector[j] for j in range(n)) - value * vector[i]
        res += r * r
    return math.sqrt(res)


def _max_residual(matrix, values, vectors) -> float:
    return max(
        (eigen_residual(matrix, w, x) for w, x in zip(values, vectors)),
        default=0.0,
    )


@dataclass(frozen=True)
class SpectrumReport:
    lambda_max: float
    laplacian_spectrum: list
    normalized_spectrum: list | None
    residual: float


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
    values, _ = jacobi_eigh(_gram(G))
    return math.sqrt(max(values[0], 0.0))


def laplacian_spectrum(G) -> list:
    """Laplacian eigenvalues, nonincreasing."""
    values, _ = jacobi_eigh(laplacian(G))
    return values


def normalized_spectrum(G) -> list:
    """Normalized-Laplacian eigenvalues of a connected graph, nonincreasing."""
    if not G.is_connected():
        raise ValueError("normalized spectrum requires a connected graph")
    values, _ = jacobi_eigh(normalized_laplacian(G))
    return values


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
    if all(G.degrees()):
        nlap = normalized_laplacian(G)
        nvals, nvecs = jacobi_eigh(nlap)
        residuals.append(_max_residual(nlap, nvals, nvecs))
    residual = max(residuals)
    return SpectrumReport(
        lambda_max=math.sqrt(max(gvals[0], 0.0)) if G.edge_count() else 0.0,
        laplacian_spectrum=lvals,
        normalized_spectrum=nvals,
        residual=residual,
    )


@dataclass(frozen=True)
class BoundReport:
    """One lhs <= rhs comparison with its arithmetic mode spelled out.

    ``mode`` is "exact" or "tolerance"; with hypotheses-gated checks whose
    hypotheses fail, ``holds``/``equality`` are None and the notes say so.
    """

    name: str
    lhs: object
    rhs: object
    holds: bool | None
    equality: bool | None
    mode: str
    tol: float = 0.0
    notes: dict = field(default_factory=dict)

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


def reflected_product_check(G: BipartiteGraph, k: int) -> BoundReport:
    """Product of mu_i(2 - mu_i) over the k largest eigenvalues vs density.

    Bipartite normalized spectra are symmetric about 1, so 2 - mu is the
    reflection of mu.  When the product stays below the density this is a
    sufficient certificate that the tree count respects the degree-product
    invariant.  Requires 1 <= k <= floor((vcount-1)/2).
    """
    total = G.m + G.n
    if total < 3:
        raise ValueError("need at least 3 vertices")
    if not 1 <= k <= (total - 1) // 2:
        raise ValueError("k=%d out of range 1..%d" % (k, (total - 1) // 2))
    mu = normalized_spectrum(G)
    product = 1.0
    for x in mu[:k]:
        product *= x * (2.0 - x)
    rho = _density(G)
    return BoundReport.within("reflected_product", product, float(rho),
                              notes={"rho": rho, "k": k})


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
