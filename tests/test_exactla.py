import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ferrers_lab import (
    Graph,
    InternalCheckError,
    bordered_ginverse,
    det_int,
    exactla,
    laplacian,
    moore_penrose_laplacian,
    resistance,
)
from ferrers_lab.exactla import RatMatrix

from conftest import (
    EXAMPLE_LAPLACIAN,
    as_matrix,
    det,
    identity,
    is_symmetric,
    random_connected_graph,
    solve,
)


def naive_det(rows):
    """Cofactor-expansion determinant, usable up to ~6x6."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_int(rows) == naive_det(rows)
        assert det(RatMatrix(rows)) == naive_det(rows)


def test_det_identity_and_empty():
    assert det(identity(5)) == 1
    assert det_int([]) == 1


def test_det_rational_entries():
    m = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]])
    assert det(m) == Fraction(1, 2) * Fraction(2, 7) - Fraction(1, 3) * Fraction(1, 5)


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det(RatMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert det(a @ b) == det(a) * det(b)


def test_example_laplacian_cofactor():
    minor = [row[1:] for row in EXAMPLE_LAPLACIAN[1:]]
    assert det_int(minor) == 36


def test_solve_identity_and_hand_case():
    assert solve(identity(3), [1, 2, 3]) == [1, 2, 3]
    assert solve(RatMatrix([[2, 1], [1, 1]]), [3, 2]) == [1, 1]


def test_solve_exact_residual_on_laplacian_minor():
    lap = RatMatrix([row[1:] for row in EXAMPLE_LAPLACIAN[1:]])
    b = [Fraction(k, 7) for k in range(1, 7)]
    x = lap.matvec(solve(lap, b))
    assert x == b


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        solve(RatMatrix([[1, 1], [1, 1]]), [1, 2])


def test_moore_penrose_single_edge():
    mp = moore_penrose_laplacian([[1, -1], [-1, 1]])
    assert mp.kind == "moore_penrose"
    assert as_matrix(mp) == RatMatrix([[Fraction(1, 4), Fraction(-1, 4)],
                                   [Fraction(-1, 4), Fraction(1, 4)]])


def test_moore_penrose_projection_identity():
    lap = RatMatrix(EXAMPLE_LAPLACIAN)
    plus = as_matrix(moore_penrose_laplacian(EXAMPLE_LAPLACIAN))
    n = lap.nrows
    expected = RatMatrix([[int(r == c) - Fraction(1, n) for c in range(n)] for r in range(n)])
    assert plus @ lap == expected
    assert plus.matvec([1] * n) == [0] * n
    assert is_symmetric(plus)


def test_moore_penrose_rejects_disconnected():
    two_edges = Graph(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        moore_penrose_laplacian(laplacian(two_edges))


def test_moore_penrose_conditions_random(rng):
    for _ in range(10):
        g = random_connected_graph(rng, max_n=6)
        lap = RatMatrix(laplacian(g))
        plus = as_matrix(moore_penrose_laplacian(laplacian(g)))
        assert lap @ plus @ lap == lap
        assert plus @ lap @ plus == plus
        assert is_symmetric(lap @ plus)
        assert is_symmetric(plus @ lap)


def test_bordered_single_edge():
    h = bordered_ginverse([[1, -1], [-1, 1]], 1)
    assert h.kind == "bordered(1)"
    assert as_matrix(h) == RatMatrix([[0, 0], [0, 1]])


def test_bordered_defining_property_on_example():
    lap = RatMatrix(EXAMPLE_LAPLACIAN)
    h = as_matrix(bordered_ginverse(EXAMPLE_LAPLACIAN, 1))
    assert lap @ h @ lap == lap


def test_bordered_resistance_readoff(rng):
    # with row/column i zeroed, H_jj is the resistance between i and j
    for _ in range(8):
        g = random_connected_graph(rng, max_n=6)
        i = rng.randint(1, g.vcount)
        h = as_matrix(bordered_ginverse(laplacian(g), i))
        for j in range(1, g.vcount + 1):
            if j != i:
                assert h[j - 1, j - 1] == resistance(g, i, j)


def test_bordered_rejects_disconnected():
    two_edges = Graph(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        bordered_ginverse(laplacian(two_edges), 1)


@st.composite
def connected_laplacians(draw, max_n=22):
    """Integer Laplacian of a random connected graph on 2..max_n vertices:
    a random labelled spanning tree plus random extra edges."""
    n = draw(st.integers(2, max_n))
    label = draw(st.permutations(range(1, n + 1)))
    edges = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    edges += [(a, b) for a, b in extra if a != b]
    return laplacian(Graph(n, edges))


def _unit(n, c):
    return [int(r == c) for r in range(n)]


def _columns_to_rows(cols):
    return [list(row) for row in zip(*cols)]


def moore_penrose_oracle(lap):
    """L^+ = (L + J/n)^{-1} - J/n, inverted column by column with ``solve``."""
    n = len(lap)
    shifted = RatMatrix([[x + Fraction(1, n) for x in row] for row in lap])
    cols = [solve(shifted, _unit(n, c)) for c in range(n)]
    return RatMatrix([[x - Fraction(1, n) for x in row] for row in _columns_to_rows(cols)])


def bordered_oracle(lap, i):
    """L_i^{-1} embedded with a zero row and column i, column by column with ``solve``."""
    n = len(lap)
    k = i - 1
    sub = RatMatrix([row[:k] + row[i:] for r, row in enumerate(lap) if r != k])
    rows = _columns_to_rows([solve(sub, _unit(n - 1, c)) for c in range(n - 1)])
    rows = [row[:k] + [0] + row[k:] for row in rows]
    rows.insert(k, [0] * n)
    return RatMatrix(rows)


@settings(max_examples=25, deadline=None)
@given(connected_laplacians())
def test_moore_penrose_matches_solve_oracle(lap):
    assert as_matrix(moore_penrose_laplacian(lap)) == moore_penrose_oracle(lap)


@settings(max_examples=8, deadline=None)
@given(connected_laplacians())
def test_bordered_matches_solve_oracle_every_pivot(lap):
    for i in range(1, len(lap) + 1):
        assert as_matrix(bordered_ginverse(lap, i)) == bordered_oracle(lap, i)


def test_det_adj_int_identity():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det_int(rows)
        if d == 0:
            with pytest.raises(ValueError):
                exactla.det_adj_int(rows)
            continue
        got, adj = exactla.det_adj_int(rows)
        assert got == d
        assert RatMatrix(rows) @ RatMatrix(adj) == identity(n, d)


def _shifted_triangular(rng, n, zero_at=None):
    """The rows of a random upper triangular 0/±1 matrix U with a ±1
    diagonal, shifted up by one (row i is row i + 1 of U, the last is row 0).

    Every elimination step but the last finds a zero on the diagonal: at
    step k the only nonzero of column k at or below the diagonal is row k
    of U, which the previous swap left last.  With ``zero_at`` = j, U[j][j] = 0, so the
    matrix is singular, found only at step j, after j swaps.
    """
    u = [[0] * i + [rng.choice((-1, 1))]
         + [rng.choice((-1, 0, 0, 1)) for _ in range(n - i - 1)] for i in range(n)]
    if zero_at is not None:
        u[zero_at][zero_at] = 0
    return u[1:] + u[:1]


def test_kernels_on_sparse_matrices_with_row_swaps():
    # sparse 0/±1 matrices of side 0..12: random ones, many of them
    # singular, and shifted triangular ones that swap at every step or turn
    # singular only after swaps; both views of the elimination against the
    # Fraction oracle
    rng = random.Random(23)
    cases = []
    for n in range(13):
        for _ in range(12):
            density = rng.choice((0.15, 0.3, 0.5))
            cases.append([[rng.choice((-1, 1)) if rng.random() < density else 0
                           for _ in range(n)] for _ in range(n)])
        cases.append(_shifted_triangular(rng, n))
        cases += [_shifted_triangular(rng, n, j) for j in range(1, n)]
    singular = 0
    for rows in cases:
        d = det_int(rows)
        assert d == det(RatMatrix(rows))
        if d == 0:
            singular += 1
            with pytest.raises(ValueError, match="^matrix is singular$"):
                exactla.det_adj_int(rows)
            continue
        got, adj = exactla.det_adj_int(rows)
        assert got == d
        assert RatMatrix(rows) @ RatMatrix(adj) == identity(len(rows), d)
    assert 0 < singular < len(cases)


@pytest.mark.parametrize("build", [moore_penrose_laplacian,
                                   lambda lap: bordered_ginverse(lap, 3)])
@pytest.mark.parametrize("corrupt", ["adjugate", "determinant"])
def test_corrupted_kernel_fails_certificate(monkeypatch, build, corrupt):
    kernel = exactla.det_adj_int

    def broken(rows):
        d, adj = kernel(rows)
        if corrupt == "determinant":
            return d + 1, adj
        adj[1][2] += 1
        return d, adj

    build(EXAMPLE_LAPLACIAN)
    monkeypatch.setattr(exactla, "det_adj_int", broken)
    with pytest.raises(InternalCheckError):
        build(EXAMPLE_LAPLACIAN)


@pytest.mark.parametrize("rows", [
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],                 # zero row sums, asymmetric
    [[2, -1], [-1, 1]],                                   # symmetric, nonzero row sum
    [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 2)]],
    [[1, -1, 0], [-1, 1]],                                # ragged
    [],
], ids=["asymmetric", "row-sum", "non-integer", "ragged", "empty"])
def test_ginverses_reject_non_laplacians(rows):
    with pytest.raises(ValueError):
        moore_penrose_laplacian(rows)
    with pytest.raises(ValueError):
        bordered_ginverse(rows, 1)


def test_solve_int_matches_fraction_solve():
    # one unit column, as the grounded resistance asks, and wider blocks
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det_int(rows)
        unit = [[int(r == rng.randrange(n))] for r in range(n)]
        block = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(n)]
        if d == 0:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                exactla.solve_int(rows, unit)
            continue
        for right in (unit, block):
            got, out = exactla.solve_int(rows, right)
            assert got == d
            for c in range(len(right[0])):
                column = solve(RatMatrix(rows), [row[c] for row in right])
                assert [row[c] for row in out] == [d * x for x in column]


def test_solve_int_rejects_mismatched_block():
    with pytest.raises(ValueError, match="right-hand block"):
        exactla.solve_int([[1, 0], [0, 1]], [[1]])
    with pytest.raises(ValueError, match="right-hand block"):
        exactla.solve_int([[1, 0], [0, 1]], [[1, 0], [1]])


@pytest.mark.parametrize("call", [
    lambda: det_int([[Fraction(1, 2)]]),
    lambda: det_int([[2.7, 0], [0, 1]]),
    lambda: exactla.det_adj_int([[1.9]]),
    lambda: exactla.solve_int([[1, 0], [0, 1]], [[Fraction(1, 3)], [0]]),
], ids=["det-fraction", "det-float", "adjugate-float", "solve-right-block"])
def test_kernel_refuses_non_integer_entries(call):
    # int() would truncate them: 0, 2 and (1, [[1]]) for the first three
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_kernel_accepts_integral_values():
    assert det_int([[2.0, 0], [0, Fraction(3, 1)]]) == 6
    assert det_int([[True]]) == 1
    assert exactla.det_adj_int([[2.0]]) == (2, [[1]])
    assert exactla.solve_int([[2, 0], [0, 1]], [[1.0], [Fraction(4, 2)]]) == (2, [[1], [4]])


def test_every_view_runs_the_one_elimination(monkeypatch):
    calls = []
    kernel = exactla._bareiss
    monkeypatch.setattr(exactla, "_bareiss",
                        lambda *args: calls.append(len(args)) or kernel(*args))
    det_int([[2, 1], [1, 1]])
    exactla.det_adj_int([[2, 1], [1, 1]])
    exactla.solve_int([[2, 1], [1, 1]], [[1], [0]])
    assert calls == [1, 2, 2]


@pytest.mark.parametrize("build", [moore_penrose_laplacian,
                                   lambda lap, tau: bordered_ginverse(lap, 3, tau)],
                         ids=["moore-penrose", "bordered"])
def test_ginverse_builders_check_a_passed_tau(monkeypatch, build):
    # the caller's tau replaces the recount but is still checked against
    # the builder's own determinant
    assert build(EXAMPLE_LAPLACIAN, 36) == build(EXAMPLE_LAPLACIAN, None)
    monkeypatch.setattr(exactla, "tree_count", lambda lap: pytest.fail("tau recounted"))
    build(EXAMPLE_LAPLACIAN, 36)
    for wrong in (35, 37, 72):
        with pytest.raises(InternalCheckError):
            build(EXAMPLE_LAPLACIAN, wrong)
