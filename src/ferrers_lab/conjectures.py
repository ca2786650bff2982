"""Per-graph bound checkers tying the exact and spectral machinery together.

Every verdict that can be exact is exact: tree counts come from
``trees.tau`` (the Schur complement of a bipartite graph's column block),
degree products and densities stay rational, and the one irrational bound
(a square root) is decided by squaring both sides.  Only genuinely
floating data (Laplacian spectra) is compared with a tolerance, the
package's one ``TOL``, and the tolerance is recorded in the report.

``BoundReport.exact`` and ``BoundReport.within`` decide the lhs <= rhs
checks; ``venkataramana`` (squares), ``grone-merris`` (a majorization) and
a withheld ``majorization_chain`` build ``BoundReport`` directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import BipartiteGraph, ferrers_invariant
from .partitions import Partition, concat, conjugate, gale_ryser, majorizes
from .spectral import TOL, BoundReport, laplacian_spectrum
from .trees import tau


def _is_complete_bipartite(G: BipartiteGraph) -> bool:
    full = (1 << G.n) - 1
    return all(r == full for r in G.rows)


def bozkurt_check(G: BipartiteGraph) -> BoundReport:
    """Tree count against (product of all degrees) / (edge count), exact.

    Equality holds exactly for complete bipartite graphs; the structural
    test is recorded alongside the arithmetic one.
    """
    e = G.edge_count()
    rhs = Fraction(math.prod(G.degrees()), e) if e else Fraction(0)
    return BoundReport.exact("bozkurt", Fraction(tau(G)), rhs,
                             {"complete_bipartite": _is_complete_bipartite(G)})


def venkataramana_check(G: BipartiteGraph) -> BoundReport:
    """Tree count against prod(d_i + 1/2) * prod(e_j + 1/2) * sqrt(e_1).

    Row vertices carry the d's, column vertices the e's, and e_1 is the
    largest column degree.  The verdict squares both sides so the square
    root never enters a comparison.
    """
    d_seq = sorted(G.degrees_u(), reverse=True)
    e_seq = sorted(G.degrees_v(), reverse=True)
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


def majorization_chain_check(spectrum, a: Partition, b: Partition) -> BoundReport:
    """Majorization-hypothesis product inequality on explicit sequences.

    Given part degree partitions a and b, with d their sorted concatenation,
    and a positive nonincreasing real sequence one shorter than d: when a
    is majorized by the conjugate of b and d by the sequence, which is
    majorized by the conjugate of d, the scaled product of the sequence
    must not exceed that of the degrees.  Failed hypotheses withhold the
    verdict instead of reporting one.
    """
    d = Partition(sorted(concat(a, b), reverse=True))
    n = len(d)
    spectrum = list(spectrum)
    if len(spectrum) != n - 1:
        raise ValueError(
            "sequence has %d entries, expected %d" % (len(spectrum), n - 1)
        )
    hypotheses = {
        "gale_ryser": gale_ryser(a, b),
        "degrees_below_sequence": majorizes(list(d.parts), spectrum),
        "sequence_below_conjugate": majorizes(spectrum, list(conjugate(d).parts)),
    }
    p, q = len(a), len(b)
    rhs_exact = Fraction(1, p * q)
    for x in d.parts:
        rhs_exact *= x
    if not all(hypotheses.values()):
        return BoundReport(
            name="majorization_chain",
            lhs=None,
            rhs=None,
            holds=None,
            equality=None,
            mode="tolerance",
            tol=TOL,
            notes={"status": "hypotheses not met", **hypotheses},
        )
    lhs = 1.0 / n
    for x in spectrum:
        lhs *= x
    return BoundReport.within("majorization_chain", lhs, float(rhs_exact),
                              notes={"rhs_exact": rhs_exact, **hypotheses})


def graph_majorization_instance(G: BipartiteGraph):
    """The (spectrum, a, b) tuple of a connected bipartite graph.

    The sequence is the Laplacian spectrum with the trailing zero
    eigenvalue dropped, and a, b are the two part degree partitions.
    """
    if not G.is_connected():
        raise ValueError("graph must be connected")
    a = Partition(sorted(G.degrees_u(), reverse=True))
    b = Partition(sorted(G.degrees_v(), reverse=True))
    return laplacian_spectrum(G)[:-1], a, b


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


def ferrers_bound_check(G: BipartiteGraph) -> BoundReport:
    """Tree count against the degree-product invariant, fully exact.

    The floating spectral product that would appear on the left is
    replaced by the exact tree count they equal, so no rounding can
    produce a spurious counterexample.  Disconnected graphs hold
    trivially (tree count zero).
    """
    return BoundReport.exact("eq3", Fraction(tau(G)), ferrers_invariant(G),
                             {"p": G.m, "q": G.n})
