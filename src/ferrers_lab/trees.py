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
prod x_i^{deg_T(u_i)} * prod y_j^{deg_T(v_j)}; it is a plain
{exponent tuple: coefficient} dict, computed brute-force for any graph and
in product form for staircase graphs.
"""

from __future__ import annotations

import math

from .budget import DEFAULT_TREE_BUDGET, BudgetExceeded
from .exactla import InternalCheckError, det_int, tree_count
from .graphs import BipartiteGraph, _rows_connected, laplacian
from .partitions import Partition, conjugate


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
    a cycle; with no spanning tree (tau = 0) no skip is allowed and the
    result is ``[]``.  Refuses up front when the tree count exceeds ``budget``.
    """
    if isinstance(G, BipartiteGraph):
        G = G.to_graph()
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


def sigma_bruteforce(G: BipartiteGraph, budget: int | None = None) -> dict:
    """Weighted tree polynomial by direct enumeration, as a term dict.

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
    return terms


def sigma_formula(lmbda: Partition) -> dict:
    """Weighted tree polynomial of a staircase graph, in closed form.

    With row degrees lambda and column degrees lambda' (its conjugate), the
    polynomial factors as

        (x_1...x_m)(y_1...y_n)
        * prod_{p=2..m} (y_1 + ... + y_{lambda_p})
        * prod_{q=2..n} (x_1 + ... + x_{lambda'_q}),

    expanded here into the term dict of ``sigma_bruteforce``, against which
    it is verified coefficient for coefficient.  Any nonempty lambda gives
    a connected graph: lambda_1 = len(lambda') and lambda'_1 = len(lambda).
    """
    if not len(lmbda):
        raise ValueError("partition does not describe a connected staircase graph")
    lmbda_dual = conjugate(lmbda)
    m, n = len(lmbda), len(lmbda_dual)
    # each linear factor is the range of variable slots it sums
    factors = [range(m, m + lmbda[p]) for p in range(1, m)]
    factors += [range(lmbda_dual[q]) for q in range(1, n)]
    poly = {(1,) * (m + n): 1}
    for slots in factors:
        product = {}
        for exps, coeff in poly.items():
            for i in slots:
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                product[key] = product.get(key, 0) + coeff
        poly = product
    return poly
