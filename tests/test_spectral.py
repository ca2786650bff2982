import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ferrers_lab import (
    BipartiteGraph,
    BoundReport,
    Graph,
    dense_cut_vertex_hypothesis,
    jacobi_eigh,
    laplacian,
    laplacian_spectrum,
    majorizes,
    normalized_product_check,
    spectral_radius,
    spectrum_report,
    sqrt_edge_bound_check,
    tau,
)
from ferrers_lab.exactla import InternalCheckError
from ferrers_lab.graphs import _normalize
from ferrers_lab.partitions import TOL
from ferrers_lab.spectral import _eigenvalues, _gram, eigen_residual

from conftest import (
    bipartite_cycle,
    complete_bipartite,
    components,
    example_staircase,
    jacobi_eigh_oracle,
    random_connected_bipartite,
)

G1 = BipartiteGraph(3, 4, [0b1111, 0b1111, 0b0011])  # complete 2x4 plus a degree-2 row
G2 = BipartiteGraph(3, 4, [0b1111, 0b0111, 0b0111])  # complete 3x3 plus a degree-1 column


def test_jacobi_matches_numpy(rng):
    for _ in range(20):
        n = rng.randint(1, 9)
        a = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.uniform(-3, 3)
        values, vectors = jacobi_eigh(a)
        expected = sorted(np.linalg.eigvalsh(np.array(a)), reverse=True)
        assert np.allclose(values, expected, atol=1e-9)
        for w, x in zip(values, vectors):
            residual = np.array(a) @ np.array(x) - w * np.array(x)
            assert np.linalg.norm(residual) <= 1e-9 * (1 + abs(w))


def test_eigen_residual_sums_left_to_right():
    # compensated summation (sum() of floats from Python 3.12) reads 1.0
    # here; the plain left-to-right order every report was pinned on reads 0
    a = [[1e16, 1.0, -1e16], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert eigen_residual(a, 0.0, [1, 1, 1]) == 0.0


def _bits(values):
    """Floats as hex strings: equal lists are equal bit for bit, signed
    zeros included."""
    return [x.hex() for x in values]


def _oracle_matrix(rng, n, kind):
    """A seeded symmetric n x n matrix of one kind: integer or float
    entries with many zero pivots, heavy ties, or a diagonal."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "int":
                x = rng.choice([0, 0, rng.randint(-3, 3)])
            elif kind == "float":
                x = rng.choice([0.0, rng.uniform(-5.0, 5.0)])
            elif kind == "ties":
                # a multiple of the all-ones matrix plus a multiple of the
                # identity: one simple eigenvalue and an (n-1)-fold one
                x = 2 if i == j else 1
            else:
                x = rng.randint(-4, 4) if i == j else 0
            a[i][j] = a[j][i] = x
    return a


@pytest.mark.parametrize("kind", ["int", "float", "ties", "diagonal"])
def test_jacobi_bit_identical_to_oracle(kind):
    rng = random.Random(20261020)
    for n in range(25):
        a = _oracle_matrix(rng, n, kind)
        values, vectors = jacobi_eigh(a)
        ov, ovecs = jacobi_eigh_oracle(a)
        assert _bits(values) == _bits(ov), (kind, n)
        assert [_bits(x) for x in vectors] == [_bits(x) for x in ovecs], (kind, n)


def test_eigenvalue_only_spectra_bit_identical_to_oracle(rng):
    graphs = [example_staircase(), complete_bipartite(3, 5), bipartite_cycle(4)]
    graphs += [random_connected_bipartite(rng, 6, 7) for _ in range(12)]
    for g in graphs:
        ov, _ = jacobi_eigh_oracle(_gram(g))
        assert spectral_radius(g).hex() == math.sqrt(max(ov[0], 0.0)).hex(), g
        ov, _ = jacobi_eigh_oracle(laplacian(g))
        assert _bits(laplacian_spectrum(g)) == _bits(ov), g
        nlap = _normalize(laplacian(g))
        ov, _ = jacobi_eigh_oracle(nlap)
        assert _bits(_eigenvalues(nlap)) == _bits(ov), g
        assert _bits(spectrum_report(g).normalized_spectrum) == _bits(ov), g


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh([[0.0, 1.0], [2.0, 0.0]])


def test_jacobi_degenerate_spectra(rng):
    # integer matrices with heavy eigenvalue ties (diagonal, scaled ones,
    # block repeats) and random small integer symmetric matrices
    cases = [
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0]],
    ]
    for _ in range(10):
        n = rng.randint(2, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-2, 2)
        cases.append(a)
    for a in cases:
        values, vectors = jacobi_eigh(a)
        expected = sorted(np.linalg.eigvalsh(np.array(a, dtype=float)),
                          reverse=True)
        assert np.allclose(values, expected, atol=1e-9), a
        for w, x in zip(values, vectors):
            residual = np.array(a, dtype=float) @ np.array(x) - w * np.array(x)
            assert np.linalg.norm(residual) <= 1e-9 * (1 + abs(w))


def test_spectral_radius_worked_examples():
    assert abs(spectral_radius(G2) - 3.0592) <= 5e-4
    assert abs(spectral_radius(G1) - 3.0204) <= 5e-4
    assert spectral_radius(G2) > spectral_radius(G1)


def test_spectral_radius_complete_bipartite():
    for p in range(1, 5):
        for q in range(1, 5):
            value = spectral_radius(complete_bipartite(p, q))
            assert abs(value - math.sqrt(p * q)) <= 1e-10 * (1 + value)


def test_spectral_radius_edgeless():
    assert spectral_radius(BipartiteGraph(2, 2, [0, 0])) == 0.0


def _sqrt_edge(g):
    return sqrt_edge_bound_check(g, spectral_radius(g))


def test_sqrt_edge_bound():
    assert _sqrt_edge(complete_bipartite(3, 3)).equality
    assert _sqrt_edge(complete_bipartite(1, 2)).equality  # P3
    c6 = bipartite_cycle(3)
    check = _sqrt_edge(c6)
    assert not check.equality
    assert abs(check.lhs - 2.0) <= 1e-9  # cycle spectral radius


def test_sqrt_edge_bound_keeps_its_own_tolerance():
    # lambda_max above sqrt(e) by more than 1e-8 is a defect, not a verdict
    k22 = complete_bipartite(2, 2)
    check = sqrt_edge_bound_check(k22, 2.0 + 5e-9)
    assert (check.holds, check.equality, check.tol) == (True, True, 1e-8)
    with pytest.raises(InternalCheckError):
        sqrt_edge_bound_check(k22, 2.0 + 2e-8)


@pytest.mark.parametrize("tol", [TOL, 1e-8])
@pytest.mark.parametrize("offset, holds, equality", [
    (-2.0, True, False),
    (-0.5, True, True),
    (0.0, True, True),
    (0.5, True, True),
    (2.0, False, False),
])
def test_bound_report_within(tol, offset, holds, equality):
    kwargs = {} if tol == TOL else {"tol": tol}
    report = BoundReport.within("b", 1.0 + offset * tol, 1.0, notes={"k": 1}, **kwargs)
    assert (report.holds, report.equality) == (holds, equality)
    assert (report.mode, report.tol, report.notes) == ("tolerance", tol, {"k": 1})
    assert report.as_dict()["tol"] == tol


@pytest.mark.parametrize("lhs, holds, equality", [
    (Fraction(35, 3), True, False),
    (Fraction(36), True, True),
    (Fraction(109, 3), False, False),
])
def test_bound_report_exact(lhs, holds, equality):
    report = BoundReport.exact("b", lhs, Fraction(72, 2))
    assert (report.holds, report.equality, report.mode) == (holds, equality, "exact")
    assert report.notes == {} and "tol" not in report.as_dict()


def test_majorizes_full_sums_within_tol():
    # every prefix clears the bound; only the full sums decide
    assert majorizes([1.0, 1.0 - TOL / 2], [1.0, 1.0])
    assert not majorizes([1.0, 1.0 - 2 * TOL], [1.0, 1.0])


def test_sqrt_edge_bound_random(rng):
    for _ in range(20):
        g = random_connected_bipartite(rng)
        check = _sqrt_edge(g)
        assert check.lhs <= check.rhs + 1e-8


def _normalized_spectrum(g):
    return _eigenvalues(_normalize(laplacian(g)))


def test_normalized_spectrum_small():
    assert np.allclose(_normalized_spectrum(Graph(2, [(1, 2)])), [2.0, 0.0])
    triangle = Graph(3, [(1, 2), (2, 3), (1, 3)])
    assert np.allclose(_normalized_spectrum(triangle), [1.5, 1.5, 0.0], atol=1e-12)


def test_normalized_spectrum_bipartite_top_is_two(rng):
    for _ in range(8):
        g = random_connected_bipartite(rng)
        mu = spectrum_report(g).normalized_spectrum
        assert abs(mu[0] - 2.0) <= 1e-9
        assert abs(mu[-1]) <= 1e-10
        assert all(-1e-9 <= x <= 2 + 1e-9 for x in mu)


def test_laplacian_spectrum_trace_identity(rng):
    for _ in range(10):
        g = random_connected_bipartite(rng)
        spec = laplacian_spectrum(g)
        assert abs(sum(spec) - 2 * g.edge_count()) <= 1e-8


def test_bipartite_adjacency_spectrum_symmetric(rng):
    for _ in range(8):
        g = random_connected_bipartite(rng)
        n = g.m + g.n
        lap = laplacian(g)
        deg = g.degrees()
        adj = [
            [deg[i] - lap[i][j] if i == j else -lap[i][j] for j in range(n)]
            for i in range(n)
        ]
        values, _ = jacobi_eigh(adj)
        assert np.allclose(values, sorted((-v for v in values), reverse=True),
                           atol=1e-9)


def test_matrix_tree_spectral_cross_check(rng):
    for _ in range(10):
        g = random_connected_bipartite(rng)
        spec = laplacian_spectrum(g)
        n = g.m + g.n
        product = 1.0
        for x in spec[: n - 1]:
            product *= x
        t = tau(g)
        assert abs(product / n - t) <= 1e-6 * t


def _normalized_product(g):
    return normalized_product_check(g, spectrum_report(g).normalized_spectrum)


def test_normalized_product_check():
    k22 = complete_bipartite(2, 2)
    check = _normalized_product(k22)
    assert check.holds
    assert check.lhs <= 1 + 1e-9
    assert _normalized_product(example_staircase()).holds
    with pytest.raises(ValueError):
        _normalized_product(complete_bipartite(1, 1))


def test_normalized_product_exhaustive_small():
    from ferrers_lab.search import ClassSpec, enumerate_class

    for g in enumerate_class(ClassSpec.all_connected_bipartite(7)).values():
        if g.m + g.n >= 3:
            assert _normalized_product(g).holds


def test_dense_cut_vertex_hypothesis():
    assert dense_cut_vertex_hypothesis(complete_bipartite(1, 2))  # P3
    assert not dense_cut_vertex_hypothesis(complete_bipartite(2, 2))
    assert not dense_cut_vertex_hypothesis(example_staircase())


def test_dense_cut_vertex_hypothesis_matches_component_count():
    # the definition, on every matrix up to 3 x 4: density >= 0.544 and a
    # degree-2 vertex whose removal raises the union-find component count
    dense_disconnected = {True: 0, False: 0}
    for m in range(1, 4):
        for n in range(1, 5):
            for rows in itertools.product(range(1 << n), repeat=m):
                g = BipartiteGraph(m, n, rows)
                h = g.to_graph()
                k = h.vcount
                edges = h.sorted_edges()
                before = len(components(k, edges))
                degs = h.degrees()
                dense = Fraction(len(edges), m * n) >= Fraction(544, 1000)
                # without its edges v stays behind as one more component
                expected = dense and any(
                    degs[v - 1] == 2
                    and len(components(k, [e for e in edges if v not in e])) - 1 > before
                    for v in range(1, k + 1)
                )
                assert dense_cut_vertex_hypothesis(g) == expected, (m, n, rows)
                if dense and before > 1:
                    dense_disconnected[expected] += 1
    assert all(dense_disconnected.values()), dense_disconnected


def test_spectrum_report_residual_bound(rng):
    for _ in range(6):
        g = random_connected_bipartite(rng)
        rep = spectrum_report(g)
        top = max(abs(x) for x in rep.laplacian_spectrum)
        assert rep.residual <= 1e-9 * (1 + top)
        assert all(-1e-9 <= x <= 2 + 1e-9 for x in rep.normalized_spectrum)
        assert rep.laplacian_spectrum == sorted(rep.laplacian_spectrum, reverse=True)
