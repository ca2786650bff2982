"""Per-graph bound checkers tying the exact and spectral machinery together.

Every verdict that can be exact is exact: tree counts come from
``trees.tau`` (the Schur complement of a bipartite graph's column block),
degree products and densities stay rational, and the one irrational bound
(a square root) is decided by squaring both sides.  The ``eq3`` bound
takes its tree count and degree product from ``trees._degree_product``,
the integers on which the scan of ``search`` decides the same bound.  Only
genuinely floating data (Laplacian spectra) is compared with a tolerance,
the package's one ``TOL``, and the tolerance is recorded in the report.

``bozkurt`` and ``eq3`` are decided by ``BoundReport.exact``;
``venkataramana`` (squares) and ``grone-merris`` (a majorization of the
float spectrum, within ``TOL``) build ``BoundReport`` directly.  The three
bounds that read the tree count take it as ``t`` from a caller that holds
it: the ``check`` command counts it once per run.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import BipartiteGraph
from .partitions import Partition, conjugate, majorizes
from .spectral import TOL, BoundReport, laplacian_spectrum
from .trees import _degree_product, tau


def _is_complete_bipartite(G: BipartiteGraph) -> bool:
    full = (1 << G.n) - 1
    return all(r == full for r in G.rows)


def bozkurt_check(G: BipartiteGraph, t: int | None = None) -> BoundReport:
    """Tree count against (product of all degrees) / (edge count), exact.

    Equality holds exactly for complete bipartite graphs; the structural
    test is recorded alongside the arithmetic one.  A caller that holds
    the tree count already passes it as ``t``.
    """
    if t is None:
        t = tau(G)
    e = G.edge_count()
    rhs = Fraction(math.prod(G.degrees()), e) if e else Fraction(0)
    return BoundReport.exact("bozkurt", Fraction(t), rhs,
                             {"complete_bipartite": _is_complete_bipartite(G)})


def venkataramana_check(G: BipartiteGraph, t: int | None = None) -> BoundReport:
    """Tree count against prod(d_i + 1/2) * prod(e_j + 1/2) * sqrt(e_1).

    Row vertices carry the d's, column vertices the e's, and e_1 is the
    largest column degree.  The verdict squares both sides so the square
    root never enters a comparison.  A caller that holds the tree count
    already passes it as ``t``.
    """
    d_seq = sorted(G.degrees_u(), reverse=True)
    e_seq = sorted(G.degrees_v(), reverse=True)
    if t is None:
        t = tau(G)
    factor = Fraction(1)
    for d in d_seq:
        factor *= d + Fraction(1, 2)
    for d in e_seq:
        factor *= d + Fraction(1, 2)
    e1 = e_seq[0]
    holds = Fraction(t) ** 2 <= factor ** 2 * e1
    equality = Fraction(t) ** 2 == factor ** 2 * e1
    return BoundReport(
        name="venkataramana",
        lhs=Fraction(t),
        rhs=float(factor) * e1 ** 0.5,
        holds=holds,
        equality=equality,
        mode="exact",
        notes={"rational_factor": factor, "sqrt_argument": e1},
    )


def grone_merris_check(G) -> BoundReport:
    """Laplacian spectrum majorized by the conjugate degree sequence.

    A theorem, so it should always hold; checked within the floating
    tolerance because the spectrum is floating.
    """
    spectrum = laplacian_spectrum(G)
    degs = [d for d in G.degrees() if d > 0]
    dual = conjugate(Partition(sorted(degs, reverse=True))) if degs else Partition(())
    ok = majorizes(spectrum, list(dual.parts))
    return BoundReport(
        name="grone-merris",
        lhs=spectrum,
        rhs=list(dual.parts),
        holds=ok,
        equality=None,
        mode="tolerance",
        tol=TOL,
        notes={"comparison": "prefix sums of spectrum vs conjugate degrees"},
    )


def ferrers_bound_check(G: BipartiteGraph, t: int | None = None) -> BoundReport:
    """Tree count against the degree-product invariant, fully exact.

    The invariant is the product of all degrees over |U|*|V|, built from
    the integer product of ``trees._degree_product``.  The floating
    spectral product that would appear on the left is replaced by the
    exact tree count they equal, so no rounding can produce a spurious
    counterexample, and ``_degree_product`` recounts that tree count
    wherever the bound is tight or fails: by the product formula on a
    staircase, by the Laplacian cofactor on any other graph.
    Disconnected graphs hold trivially (tree count zero).  A caller that
    holds the tree count already passes it as ``t``; it is recounted all
    the same wherever the bound is tight or fails.
    """
    t, _, product = _degree_product(G, t)
    return BoundReport.exact("eq3", Fraction(t), Fraction(product, G.m * G.n),
                             {"p": G.m, "q": G.n})
