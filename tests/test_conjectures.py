import math
from fractions import Fraction

import pytest

from ferrers_lab import (
    BipartiteGraph,
    Partition,
    bozkurt_check,
    conjectures,
    ferrers_bound_check,
    graph_majorization_instance,
    grone_merris_check,
    laplacian,
    laplacian_spectrum,
    majorization_chain_check,
    majorizes,
    venkataramana_check,
)
from ferrers_lab.exactla import tree_count
from ferrers_lab.partitions import TOL
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


def test_majorization_chain_staircase_instance():
    spectrum, a, b = graph_majorization_instance(example_staircase())
    assert a == Partition((3, 3, 2, 1))
    assert b == Partition((4, 3, 2))
    rep = majorization_chain_check(spectrum, a, b)
    assert rep.holds
    assert rep.equality  # tau = invariant = 36 for this graph
    assert rep.notes["rhs_exact"] == 36
    assert rep.notes["gale_ryser"]


def test_majorization_chain_cycle_equality_witness():
    spectrum, a, b = graph_majorization_instance(complete_bipartite(2, 2))
    assert sorted(spectrum, reverse=True) == pytest.approx([4.0, 2.0, 2.0])
    rep = majorization_chain_check(spectrum, a, b)
    assert rep.holds and rep.equality
    assert rep.notes["rhs_exact"] == 4


def test_majorization_chain_graph_route_over_classes():
    # every connected bipartite class on 2..9 vertices meets the
    # hypotheses; the spectral product over n is tau by the matrix-tree
    # theorem, and the float verdict is the exact Ferrers bound's
    checked = equalities = 0
    for g in enumerate_class(ClassSpec.all_connected_bipartite(9)).values():
        rep = majorization_chain_check(*graph_majorization_instance(g))
        exact = ferrers_bound_check(g)
        assert rep.holds is not None, g
        assert abs(rep.lhs - exact.lhs) <= 1e-9 * exact.lhs, g
        assert (rep.holds, rep.equality) == (exact.holds, exact.equality), g
        checked += 1
        equalities += rep.equality
    assert (checked, equalities) == (983, 135)


@pytest.mark.parametrize("m, n", [(5, 6), (6, 6), (6, 7), (7, 7)])
def test_majorization_chain_tolerance_scales_with_the_rhs(m, n):
    # tau = 4,050,000 on K_{5,6}: the float product's rounding (1.7e-8
    # there) passes an absolute 1e-9, yet the verdict is the exact bound's
    g = complete_bipartite(m, n)
    rep = majorization_chain_check(*graph_majorization_instance(g))
    exact = ferrers_bound_check(g)
    assert (rep.holds, rep.equality) == (exact.holds, exact.equality) == (True, True)
    assert rep.tol == TOL * rep.rhs


def test_majorization_chain_scaled_spectrum_still_fails(monkeypatch):
    spectrum, a, b = graph_majorization_instance(complete_bipartite(5, 6))
    scaled = [x * (1 + 1e-6) for x in spectrum]
    # its sum is no longer the degree sum, so the hypotheses withhold a verdict
    assert majorization_chain_check(scaled, a, b).holds is None
    # granted them, the product is (1 + 1e-6)^10 times the rhs: far outside
    # a tolerance of 1e-9 relative to the rhs
    monkeypatch.setattr(conjectures, "majorizes", lambda x, y: True)
    rep = majorization_chain_check(scaled, a, b)
    assert (rep.holds, rep.equality) == (False, False)


def test_majorization_chain_withholds_verdict():
    # d = (3, 2, 2, 1)
    rep = majorization_chain_check([4.0, 2.0, 2.0], Partition((3, 1)),
                                   Partition((2, 2)))
    assert rep.holds is None
    assert rep.notes["status"] == "hypotheses not met"
    assert not rep.notes["gale_ryser"]


def test_majorization_chain_validates_shape():
    # d = (2, 2, 2) needs two entries
    with pytest.raises(ValueError, match="entries"):
        majorization_chain_check([2.0], Partition((2, 2)), Partition((2,)))


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
