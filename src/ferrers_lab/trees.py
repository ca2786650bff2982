"""Spanning-tree counting, explicit enumeration, and the weighted tree polynomial.

The count of a general graph is a Laplacian cofactor (exact, Bareiss).  A
bipartite graph's count takes the Schur complement of its column block
instead, with the smaller part as rows: with row degrees d_u, column
degrees d_v, P the lcm of the d_v and ' dropping the last row vertex,

    tau = prod(d_v) * det(P D_U' - B' diag(P / d_v) B'^T) / P^(m-1),

an integer (m-1)-square determinant in place of an (m+n-1)-square one.
The division must be exact, or ``InternalCheckError`` is raised; the
degree-product scan of ``search`` checks this count against the cofactor
on every equality case and counterexample.

Enumeration is a deletion/contraction backtrack over the sorted edge
list, guarded by a budget.  An edge is included when it joins two
components of the chosen forest (one vertex mask per component), and
skipped only while those masks and the remaining edges, as bit rows,
still connect the graph: the bit-row reach of ``graphs``.  The weighted
polynomial assigns each spanning tree the monomial
prod x_i^{deg_T(u_i)} * prod y_j^{deg_T(v_j)} and is available both
brute-force and in product form for staircase graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import DEFAULT_TREE_BUDGET, BudgetExceeded
from .exactla import InternalCheckError, det_int, tree_count
from .graphs import BipartiteGraph, _rows_connected, laplacian
from .partitions import Partition, conjugate


@dataclass(frozen=True, slots=True)
class MultiPoly:
    """Multivariate polynomial with integer coefficients.

    Terms map fixed-arity exponent tuples to nonzero coefficients; iteration
    and serialization follow sorted exponent order, so equal polynomials
    have identical renderings.
    """

    arity: int
    terms: dict = None

    def __post_init__(self):
        clean = {}
        for exps, coeff in (self.terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.arity:
                raise ValueError("exponent vector has arity %d, expected %d"
                                 % (len(exps), self.arity))
            coeff = int(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def monomial(cls, arity: int, exps, coeff: int = 1) -> "MultiPoly":
        return cls(arity, {tuple(exps): coeff})

    @classmethod
    def variable_sum(cls, arity: int, indices) -> "MultiPoly":
        """Sum of single variables, e.g. x_a + x_b + ... (0-based slots)."""
        terms = {}
        for idx in indices:
            exps = [0] * arity
            exps[idx] = 1
            terms[tuple(exps)] = 1
        return cls(arity, terms)

    def __add__(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly(self.arity, terms)

    def __mul__(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MultiPoly(self.arity, terms)

    def evaluate(self, values):
        """Evaluate at a full assignment (one value per slot)."""
        if len(values) != self.arity:
            raise ValueError("need %d values" % self.arity)
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                term *= v ** e
            total += term
        return total

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def __hash__(self):
        return hash((self.arity, tuple(self.sorted_terms())))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "MultiPoly(arity=%d, terms=%d)" % (self.arity, len(self.terms))


def tau(G) -> int:
    """Number of spanning trees: the Schur complement for a bipartite graph,
    the (1,1) Laplacian cofactor for a general one.

    Exact for any vertex count >= 1; disconnected graphs give 0.
    """
    if isinstance(G, BipartiteGraph):
        return _schur_tau(G)
    if G.vcount < 1:
        raise ValueError("graph needs at least one vertex")
    return tree_count(laplacian(G))


def _schur_tau(G: BipartiteGraph) -> int:
    """Tree count of a bipartite graph from the Schur complement of its
    column block, scaled to integers by P, the lcm of the column degrees."""
    if G.m > G.n:
        G = G.transpose()
    du, dv = G.degrees_u(), G.degrees_v()
    if 0 in du or 0 in dv:
        return 0
    p = math.lcm(*dv)
    weight = [p // d for d in dv]
    rows = G.rows[:-1]
    a = [[0] * len(rows) for _ in rows]
    for i, r in enumerate(rows):
        for k in range(i, len(rows)):
            shared, x = r & rows[k], 0
            while shared:
                low = shared & -shared
                x -= weight[low.bit_length() - 1]
                shared ^= low
            a[i][k] = a[k][i] = x
        a[i][i] += p * du[i]
    t, rem = divmod(math.prod(dv) * det_int(a), p ** len(rows))
    if rem:
        raise InternalCheckError("Schur-complement tree count is not an integer:"
                                 " remainder %d of %d" % (rem, p ** len(rows)))
    return t


def enumerate_spanning_trees(G, budget: int | None = None) -> list:
    """All spanning trees as sorted edge tuples, each exactly once.

    Walks the sorted edge list deciding include/contract versus
    delete/skip, pruning branches that cannot stay spanning or would close
    a cycle.  Refuses up front when the tree count exceeds ``budget``.
    """
    if isinstance(G, BipartiteGraph):
        G = G.to_graph()
    if not G.is_connected():
        raise ValueError("graph must be connected")
    if budget is None:
        budget = DEFAULT_TREE_BUDGET
    count = tau(G)
    if count > budget:
        raise BudgetExceeded(
            "graph has %d spanning trees, enumeration budget is %d" % (count, budget)
        )
    edges = G.sorted_edges()
    n = G.vcount
    full = (1 << n) - 1
    bits = [1 << (a - 1) | 1 << (b - 1) for a, b in edges]
    trees = []
    chosen = []

    # comp[v - 1] is the vertex mask of v's component in the chosen forest,
    # bits[i] the mask of the endpoints of edges[i]
    def walk(idx, comp, picked):
        if picked == n - 1:
            trees.append(tuple(chosen))
            return
        if idx == len(edges):
            return
        a, b = edges[idx]
        if not comp[a - 1] >> (b - 1) & 1:
            joined = comp[a - 1] | comp[b - 1]
            chosen.append(edges[idx])
            walk(idx + 1, [joined if c & joined else c for c in comp], picked + 1)
            chosen.pop()
        if _rows_connected(comp + bits[idx + 1:], full):
            walk(idx + 1, comp, picked)

    walk(0, [1 << v for v in range(n)], 0)
    trees.sort()
    if len(trees) != count:
        raise InternalCheckError("enumeration found %d trees, cofactor says %d"
                             % (len(trees), count))
    return trees


def sigma_bruteforce(G: BipartiteGraph, budget: int | None = None) -> MultiPoly:
    """Weighted tree polynomial by direct enumeration.

    Slot i (0-based) is x_{i+1} for i < m, and y_{i-m+1} after that.
    """
    arity = G.m + G.n
    trees = enumerate_spanning_trees(G, budget=budget)
    terms = {}
    for tree in trees:
        exps = [0] * arity
        for a, b in tree:
            exps[a - 1] += 1
            exps[b - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(arity, terms)


def sigma_formula(lmbda: Partition, lmbda_dual: Partition) -> MultiPoly:
    """Weighted tree polynomial of a connected staircase graph, in closed form.

    With row degrees lambda and column degrees lambda' (the conjugate), the
    polynomial factors as

        (x_1...x_m)(y_1...y_n)
        * prod_{p=2..m} (y_1 + ... + y_{lambda_p})
        * prod_{q=2..n} (x_1 + ... + x_{lambda'_q}),

    verified coefficient-for-coefficient against ``sigma_bruteforce``.
    The graph must be connected: lambda_1 = len(lambda') and
    lambda'_1 = len(lambda).
    """
    if conjugate(lmbda) != lmbda_dual:
        raise ValueError("second argument must be the conjugate of the first")
    m, n = len(lmbda), len(lmbda_dual)
    if not m or lmbda[0] != n or lmbda_dual[0] != m:
        raise ValueError("partition does not describe a connected staircase graph")
    arity = m + n
    poly = MultiPoly.monomial(arity, [1] * arity)
    for p in range(1, m):
        poly = poly * MultiPoly.variable_sum(arity, [m + j for j in range(lmbda[p])])
    for q in range(1, n):
        poly = poly * MultiPoly.variable_sum(arity, list(range(lmbda_dual[q])))
    return poly
