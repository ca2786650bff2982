import math
from fractions import Fraction

import pytest

from ferrers_lab import (
    BipartiteGraph,
    bozkurt_check,
    ferrers_bound_check,
    grone_merris_check,
    laplacian,
    laplacian_spectrum,
    majorizes,
    venkataramana_check,
)
from ferrers_lab.exactla import tree_count
from ferrers_lab.search import ClassSpec, enumerate_class

from conftest import bipartite_cycle, complete_bipartite, example_staircase


def test_bozkurt_equality_on_complete_bipartite():
    rep = bozkurt_check(complete_bipartite(2, 3))
    assert rep.holds and rep.equality
    assert rep.notes["complete_bipartite"]
    rep = bozkurt_check(complete_bipartite(1, 1))
    assert rep.holds and rep.equality


def test_bozkurt_strict_on_staircase():
    rep = bozkurt_check(example_staircase())
    assert rep.lhs == 36
    assert rep.rhs == Fraction(432, 9)
    assert rep.holds and not rep.equality
    assert not rep.notes["complete_bipartite"]


def test_bozkurt_iff_over_small_classes():
    for g in enumerate_class(ClassSpec.all_connected_bipartite(7)).values():
        rep = bozkurt_check(g)
        assert rep.holds
        assert rep.equality == rep.notes["complete_bipartite"]


def test_venkataramana_worked_example():
    rep = venkataramana_check(example_staircase())
    assert rep.lhs == 36
    assert rep.holds
    assert rep.notes["sqrt_argument"] == 4
    factor = Fraction(7, 2) * Fraction(7, 2) * Fraction(5, 2) * Fraction(3, 2) \
        * Fraction(9, 2) * Fraction(7, 2) * Fraction(5, 2)
    assert rep.notes["rational_factor"] == factor


def test_venkataramana_single_edge():
    rep = venkataramana_check(complete_bipartite(1, 1))
    assert rep.holds and not rep.equality  # 1 <= 1.5 * 1.5 * 1


def test_venkataramana_over_small_classes():
    for g in enumerate_class(ClassSpec.all_connected_bipartite(7)).values():
        assert venkataramana_check(g).holds


def test_grone_merris_star():
    star = complete_bipartite(1, 4)
    spectrum = laplacian_spectrum(star)
    assert spectrum == pytest.approx([5.0, 1.0, 1.0, 1.0, 0.0], abs=1e-9)
    rep = grone_merris_check(star)
    assert rep.holds
    assert rep.rhs == [5, 1, 1, 1]


def test_grone_merris_single_edge_and_small_classes():
    assert grone_merris_check(complete_bipartite(1, 1)).holds
    for g in enumerate_class(ClassSpec.all_connected_bipartite(7)).values():
        assert grone_merris_check(g).holds


def test_hermitian_majorization_small_classes():
    for g in enumerate_class(ClassSpec.all_connected_bipartite(7)).values():
        degrees = sorted(g.degrees(), reverse=True)
        assert majorizes(degrees, laplacian_spectrum(g))


def test_ferrers_bound_check_values():
    rep = ferrers_bound_check(example_staircase())
    assert rep.holds and rep.equality
    assert rep.lhs == 36 and rep.rhs == 36
    rep = ferrers_bound_check(bipartite_cycle(3))
    assert rep.lhs == 6
    assert rep.rhs == Fraction(64, 9)
    assert rep.holds and not rep.equality


def test_ferrers_bound_check_disconnected_trivial():
    # an empty column makes both sides 0
    g = BipartiteGraph(2, 2, [0b01, 0b01])
    rep = ferrers_bound_check(g)
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.holds and rep.equality


def test_ferrers_bound_check_matches_cofactor_and_degree_product():
    # both sides against independent routes: the Laplacian cofactor, and
    # the degree product over |X||Y|
    for g in enumerate_class(ClassSpec.all_connected_bipartite(6)).values():
        rep = ferrers_bound_check(g)
        assert rep.lhs == tree_count(laplacian(g))
        assert rep.rhs == Fraction(math.prod(g.degrees()), g.m * g.n)
