"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
two exhaustive scans (criteria 5 and 6) dominate the runtime.
"""

import itertools
import random
from fractions import Fraction

from ferrers_lab import (
    BipartiteGraph,
    Partition,
    bordered_ginverse,
    bozkurt_check,
    canonical_code,
    conjugate,
    enumerate_class,
    enumerate_spanning_trees,
    ferrers_edge_invariance,
    ferrers_from_partition,
    ferrers_invariant,
    ferrers_tree_identity,
    grone_merris_check,
    laplacian,
    laplacian_spectrum,
    majorizes,
    moore_penrose_laplacian,
    resistance,
    sigma_bruteforce,
    sigma_formula,
    spectral_radius,
    spectral_search,
    spectrum_report,
    tau,
    verify_ferrers_bound,
)
from ferrers_lab.exactla import det_int
from ferrers_lab.resistance import edge_deletion_equivalence_scan
from ferrers_lab.search import ClassSpec

from conftest import (
    EXAMPLE_LAPLACIAN,
    as_matrix,
    connected_ferrers_partitions,
    example_staircase,
    random_connected_graph,
    shuffle_bipartite,
)

JOBS = 2


def _report(num, label):
    print("ACCEPTANCE %2d PASS: %s" % (num, label))


def test_criterion_01_staircase_formula_exhaustive():
    checked = 0
    for lam in connected_ferrers_partitions(12):
        g = ferrers_from_partition(lam, lam[0])
        assert Fraction(tau(g)) == ferrers_invariant(g), lam
        checked += 1
    assert checked > 1000
    _report(1, "tau equals degree-product invariant on %d staircase graphs "
               "(up to 12 vertices, exact)" % checked)


def test_criterion_02_worked_example_count():
    g = example_staircase()
    assert tau(g) == 36
    minor = [row[1:] for row in EXAMPLE_LAPLACIAN[1:]]
    assert det_int(minor) == 36
    assert laplacian(g) == EXAMPLE_LAPLACIAN
    _report(2, "4x3 staircase has exactly 36 spanning trees; fixture minor"
               " determinant is 36")


def test_criterion_03_complete_bipartite_counts():
    for m in range(1, 6):
        for n in range(1, 6):
            g = BipartiteGraph(m, n, [(1 << n) - 1] * m)
            assert tau(g) == m ** (n - 1) * n ** (m - 1), (m, n)
    _report(3, "tau(K_{m,n}) = m^(n-1) n^(m-1) for all m,n <= 5, exact")


def test_criterion_04_spectral_worked_example():
    g1 = BipartiteGraph(3, 4, [0b1111, 0b1111, 0b0011])
    g2 = BipartiteGraph(3, 4, [0b1111, 0b0111, 0b0111])
    assert abs(spectral_radius(g1) - 3.0204) <= 5e-4
    assert abs(spectral_radius(g2) - 3.0592) <= 5e-4
    report = spectral_search(3, 4, 10)
    assert len(report.extremal) == 1
    assert list(report.extremal) == [canonical_code(g2)]
    _report(4, "lambda_max values 3.0204 / 3.0592 reproduced; search over the"
               " (3,4,10) class returns the unique maximizer")


def test_criterion_05_ferrers_bound_scan_10_vertices():
    report = verify_ferrers_bound(10, jobs=JOBS)
    assert report.counterexamples == {}
    assert report.examined == 5015
    assert report.details["equality_non_ferrers"] == []
    _report(5, "all %d connected bipartite classes up to 10 vertices are"
               " Ferrers-good (%.1fs)" % (report.examined, report.elapsed))


def test_criterion_06_equivalence_scan_7_vertices():
    result = edge_deletion_equivalence_scan(7, jobs=JOBS)
    assert result["all_agree_everywhere"]
    assert result["failures"] == []
    assert result["graphs_checked"] == 6 + 21 + 112 + 853
    _report(6, "eleven conditions agree on every admissible pair over all"
               " %d connected graphs up to 7 vertices (%d pairs, exact)"
            % (result["graphs_checked"], result["pairs_checked"]))


def test_criterion_07_weighted_formula_small_staircases():
    checked = 0
    for lam in connected_ferrers_partitions(11):
        if lam.size > 10:
            continue
        g = ferrers_from_partition(lam, lam[0])
        assert sigma_formula(lam) == sigma_bruteforce(g), lam
        checked += 1
    _report(7, "closed-form weighted tree polynomial matches brute force on"
               " %d staircase graphs with <= 10 edges" % checked)


def test_criterion_08_certificate_and_factorization_exhaustive():
    checked = 0
    for lam in connected_ferrers_partitions(10):
        if len(set(lam)) == 1:
            continue  # complete bipartite: no admissible pair
        cert = ferrers_edge_invariance(lam)
        assert cert.w_is_solution and cert.resistance_equal, lam
        assert ferrers_tree_identity(lam), lam
        checked += 1
    assert checked > 100
    _report(8, "certificate vector and tree-count factorization hold exactly"
               " for all %d admissible staircases up to 10 vertices" % checked)


def test_criterion_09_conjugate_example():
    assert conjugate(Partition((5, 5, 4, 2, 2, 1))) == Partition((6, 5, 3, 3, 2))
    _report(9, "conjugate of (5,5,4,2,2,1) is (6,5,3,3,2)")


def test_criterion_10_bozkurt_iff_9_vertices():
    classes = enumerate_class(ClassSpec.all_connected_bipartite(9))
    for g in classes.values():
        rep = bozkurt_check(g)
        assert rep.holds, g
        assert rep.equality == rep.notes["complete_bipartite"], g
    _report(10, "degree-product/edge bound holds on all %d classes up to 9"
                " vertices, equality exactly on complete bipartite"
            % len(classes))


def test_criterion_11_majorization_9_vertices():
    classes = enumerate_class(ClassSpec.all_connected_bipartite(9))
    for g in classes.values():
        assert grone_merris_check(g).holds, g
        degrees = sorted(g.degrees(), reverse=True)
        assert majorizes(degrees, laplacian_spectrum(g)), g
    _report(11, "spectrum majorized by conjugate degrees and degrees"
                " majorized by spectrum on all %d classes up to 9 vertices"
            % len(classes))


def test_criterion_12_property_suites():
    rng = random.Random(987)

    # g-inverse independence of resistance
    for _ in range(6):
        g = random_connected_graph(rng, max_n=6)
        lap = laplacian(g)
        plus = as_matrix(moore_penrose_laplacian(lap))
        for i, j in itertools.combinations(range(1, g.vcount + 1), 2):
            r = resistance(g, i, j)
            assert plus[i - 1, i - 1] + plus[j - 1, j - 1] \
                - 2 * plus[i - 1, j - 1] == r
            assert as_matrix(bordered_ginverse(lap, i))[j - 1, j - 1] == r

    # eigen-residual bounds from the spectrum report
    for rows in ([0b111, 0b111, 0b011, 0b001], [0b11, 0b11], [0b1011, 0b1110]):
        g = BipartiteGraph(len(rows), max(rows).bit_length(), rows)
        rep = spectrum_report(g)
        top = max(abs(x) for x in rep.laplacian_spectrum)
        assert rep.residual <= 1e-9 * (1 + top)

    # canonical-code isomorphism invariance, 1000 relabelings
    base = example_staircase()
    code = canonical_code(base)
    for _ in range(1000):
        assert canonical_code(shuffle_bipartite(base, rng)) == code

    # oracle equivalence of the tree count vs explicit enumeration
    for _ in range(10):
        g = random_connected_graph(rng, max_n=8)
        assert len(enumerate_spanning_trees(g)) == tau(g)

    _report(12, "g-inverse independence, eigen-residual bounds, canonical-code"
                " invariance, and enumeration oracle equivalence all hold")
