"""Exhaustive bipartite class enumeration and the extremal searches.

Isomorphism classes are keyed by a canonical code: the lexicographically
least tuple of biadjacency row values reachable by row and column
permutations (plus the part swap when the parts have equal size).  The
code is found by a pruned branch-and-bound that picks rows greedily while
refining an ordered partition of the columns, so only permutations
consistent with the refinement are ever touched.  It is the package's
only canonizer: ``resistance`` keys general graphs by the code of their
vertex-edge incidence matrix (vertices as rows, edges as columns).

Classes are generated row by row, once per column count, by orderly
generation (Read 1978): a candidate is kept only when it is its own code,
tested by the same search descending only while its prefix equals the
candidate and stopping at the first smaller prefix.  The code is
nondecreasing, its first k values are the code of those k rows, and each
value fills the low end of the twin-column groups of the values above
it; so each kept matrix is extended by those fills no less than its last
row, and every class with parts fixed is reached exactly once.  At the
last level the class filters (connectivity, edge count, no empty column)
run on the bit rows first.

Growth holds the parts fixed, so a class with parts of equal size can be
reached twice, once per orientation.  Every class kind keeps a square
class whose transpose is in the class iff no labeling of the transpose
is below its own code (the same early-stopping search, bounded by that
code), so of the two orientations the one with the smaller code stays,
and its code is already the full code.  The connected scan and the kpqe
classes with p = q are closed under the part swap.  A degree class fixes
the row degrees only: it holds a square member's transpose exactly when
the member's column degrees, sorted, equal its own, and a member whose
transpose it does not hold is kept and keyed by its full code.  Every
level is in ascending code order.

Searches shard their per-graph checks over a process pool when asked;
results merge in enumeration order so reports are byte-identical
regardless of worker count.  The degree-product scan compares
tau*m*n with the product of the degrees, both integers, and recomputes
the Schur-complement tree count of ``trees`` by the Laplacian cofactor on
every equality case and counterexample; a disagreement raises
``InternalCheckError``.

No class holds an isolated vertex, and no kpqe class (e < p*q) holds the
complete graph; reports record both facts as the ``no_isolated`` and
``exclude_complete`` flags of the class, which are not options.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .budget import (
    CANDIDATE_GUARD,
    DEFAULT_SCAN_VERTICES,
    DEFAULT_SPECTRAL_PQ,
    BudgetExceeded,
    admit,
)
from .exactla import InternalCheckError, tree_count
from .graphs import (
    BipartiteGraph,
    _rows_connected,
    _transpose_rows,
    ferrers_from_partition,
    is_ferrers,
    laplacian,
)
from .partitions import Partition
from .spectral import spectral_radius
from .trees import tau

MAX_CODE_SIDE = 12

#: spectral maxima within this distance of the top value tie for extremal
SPECTRAL_TIE_TOL = 1e-9


def _row_values(remaining, cells, floor=0):
    """{row: value} for the distinct rows of ``remaining`` under the column
    ``cells``, or None as soon as a value falls below ``floor``.

    A row's value is its ones packed to the low end of each cell, the cells
    in order: the least row it can become under column permutations that
    keep the cells.  With ``_split`` this is the canonizer's one
    refinement step.
    """
    vals = {}
    for r in remaining:
        if r not in vals:
            v = 0
            for cellmask, width in cells:
                v = (v << width) | ((1 << (r & cellmask).bit_count()) - 1)
            if v < floor:
                return None
            vals[r] = v
    return vals


def _split(remaining, cells, r):
    """``remaining`` less one copy of row ``r``, and ``cells`` with each
    cell split into its zeros of ``r``, then its ones."""
    rest = list(remaining)
    rest.remove(r)
    newcells = []
    for cellmask, width in cells:
        ones = cellmask & r
        zeros = cellmask ^ ones
        if zeros:
            newcells.append((zeros, zeros.bit_count()))
        if ones:
            newcells.append((ones, ones.bit_count()))
    return rest, newcells


def _code_rows(rows, n, bound=None):
    """Least tuple of row values over row/column permutations (parts fixed).

    The search prunes against ``bound`` from the start, so it returns
    min(code, bound) and gives up on a branch as soon as it exceeds bound.
    """
    best = bound

    def rec(remaining, cells, acc):
        nonlocal best
        if not remaining:
            cand = tuple(acc)
            if best is None or cand < best:
                best = cand
            return
        vals = _row_values(remaining, cells)
        vmin = min(vals.values())
        acc.append(vmin)
        if best is None or tuple(acc) <= best[:len(acc)]:
            for r, v in vals.items():
                if v == vmin:
                    rec(*_split(remaining, cells, r), acc)
        acc.pop()

    rec(list(rows), [((1 << n) - 1, n)], [])
    return best


def _is_code(rows, n, least):
    """True iff no labeling of ``rows`` is below ``least``:
    ``_code_rows(rows, n, least) == least``.

    The same search, descending only while its prefix equals ``least``; it
    returns False at the first row value below ``least``, since every leaf
    under a smaller prefix is a smaller code.  With ``least`` = ``rows`` it
    decides whether ``rows`` is its own code.
    """

    def rec(remaining, cells):
        target = least[len(least) - len(remaining)]
        vals = _row_values(remaining, cells, target)
        if vals is None:
            return False
        if len(remaining) == 1:
            return True
        for r, v in vals.items():
            if v == target and not rec(*_split(remaining, cells, r)):
                return False
        return True

    return rec(list(rows), [((1 << n) - 1, n)])


def _keeps_orientation(rows, n):
    """True iff the square code ``rows`` is not above the code of its
    transpose: a class reached in both orientations keeps only the one with
    the smaller code, which is then its full canonical code."""
    return _is_code(_transpose_rows(rows, n), n, rows)


def _serialize(m, n, values) -> bytes:
    out = bytearray([m, n])
    for v in values:
        out += v.to_bytes(2, "big")
    return bytes(out)


def canonical_code(G: BipartiteGraph) -> bytes:
    """Isomorphism-invariant byte code; equal codes mean isomorphic graphs.

    Parts are held fixed; when the two parts have the same size the code
    also minimizes over swapping them.  Limited to 12 rows/columns.
    """
    if G.m > MAX_CODE_SIDE or G.n > MAX_CODE_SIDE:
        raise ValueError("canonical codes support at most %d rows/columns"
                         % MAX_CODE_SIDE)
    rows = _code_rows(G.rows, G.n)
    if G.m == G.n:
        rows = _code_rows(G.transpose().rows, G.m, rows)
    return _serialize(G.m, G.n, rows)


def graph_from_code(code: bytes) -> BipartiteGraph:
    m, n = code[0], code[1]
    rows = [
        int.from_bytes(code[2 + 2 * i: 4 + 2 * i], "big") for i in range(m)
    ]
    return BipartiteGraph(m, n, rows)


@dataclass(frozen=True)
class ClassSpec:
    """A family of bipartite graphs to enumerate up to isomorphism."""

    kind: str
    p: int = 0
    q: int = 0
    e: int = 0
    degrees: tuple = ()
    max_vertices: int = 0

    @classmethod
    def kpqe(cls, p: int, q: int, e: int) -> "ClassSpec":
        if not (2 <= p <= q):
            raise ValueError("need 2 <= p <= q")
        if not (1 < e < p * q):
            raise ValueError("need 1 < e < p*q")
        return cls(kind="kpqe", p=p, q=q, e=e)

    @classmethod
    def degree_class(cls, degrees: Partition) -> "ClassSpec":
        degrees = tuple(degrees)
        if not degrees:
            raise ValueError("degree sequence must be nonempty")
        if min(degrees) < 1:
            raise ValueError("degree sequence must be positive")
        return cls(kind="degree_class", degrees=degrees)

    @classmethod
    def all_connected_bipartite(cls, max_vertices: int) -> "ClassSpec":
        if max_vertices < 2:
            raise ValueError("need at least 2 vertices")
        return cls(kind="all_connected_bipartite", max_vertices=max_vertices)

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "kpqe":
            out.update(p=self.p, q=self.q, e=self.e)
        elif self.kind == "degree_class":
            out.update(degrees=list(self.degrees))
        else:
            out.update(max_vertices=self.max_vertices)
        out.update(no_isolated=True, exclude_complete=self.kind == "kpqe")
        return out


class _Counter:
    """Candidates examined, bounded by the guard; knows where growth is."""

    __slots__ = ("candidates", "guard", "columns", "rows_done", "classes")

    def __init__(self, guard):
        self.candidates = 0
        self.guard = guard
        self.columns = self.rows_done = self.classes = 0

    def bump(self):
        self.candidates += 1
        if self.candidates > self.guard:
            raise BudgetExceeded(
                "class enumeration examined more than %d candidates" % self.guard,
                progress={"columns": self.columns, "rows_done": self.rows_done,
                          "classes": self.classes,
                          "candidates": self.candidates},
            )


def _twin_masks(rows, n):
    """Nonzero next rows, each least in its orbit under twin-column swaps.

    Twin columns are identical in every row of ``rows``; a mask's ones
    fill the lowest bits of each twin group, so only how many twins get a
    one varies.  Ascending order.
    """
    groups = [(1 << n) - 1]
    for r in rows:
        groups = [part for g in groups for part in (g & r, g & ~r) if part]
    masks = [0]
    for g in groups:
        fills = [0]
        while g:
            low = g & -g
            fills.append(fills[-1] | low)
            g ^= low
        masks = [a | b for a in masks for b in fills]
    masks.sort()
    return masks[1:]


def _grow(n, depth, counter, keep_partial=None, degrees_left=None,
          accept=None):
    """Yield (m, classes) for m = 1..depth: the m x n biadjacency classes
    without zero rows (parts fixed), as {parts-fixed code: code rows}.

    ``keep_partial(rows)`` may reject a partial matrix (filters that hold
    for every row prefix of a member, e.g. edge budgets); rejected partials
    are never extended.  ``degrees_left(rows)`` narrows the next row to
    those degrees.  ``accept(rows)`` is a class-invariant filter run before
    the code test at the last level only.  ``counter`` counts every
    candidate examined and records where growth is.  Each level is in
    ascending code order, since parents come in that order and their masks
    ascend.
    """
    if n > MAX_CODE_SIDE or depth > MAX_CODE_SIDE:
        raise ValueError("canonical codes support at most %d rows/columns"
                         % MAX_CODE_SIDE)
    counter.columns = n
    level = {b"": ()}
    for m in range(1, depth + 1):
        last = m == depth
        counter.rows_done, counter.classes = m - 1, len(level)
        nxt = {}
        for rows in level.values():
            floor = rows[-1] if rows else 0
            masks = [x for x in _twin_masks(rows, n) if x >= floor]
            if degrees_left is not None:
                allowed = degrees_left(rows)
                masks = [x for x in masks if x.bit_count() in allowed]
            for mask in masks:
                counter.bump()
                cand = rows + (mask,)
                if keep_partial is not None and not keep_partial(cand):
                    continue
                if last and accept is not None and not accept(cand):
                    continue
                if _is_code(cand, n, cand):
                    nxt[_serialize(m, n, cand)] = cand
        level = nxt
        yield m, level


def _classes_mn(m, n, counter, **filters):
    """The m x n classes of ``_grow``: {parts-fixed code: code rows}."""
    level = {}
    for _, level in _grow(n, m, counter, **filters):
        pass
    return level


def _covers(rows, full):
    """True iff no column of the bit rows is empty."""
    cover = 0
    for r in rows:
        cover |= r
    return cover == full


def enumerate_class(spec: ClassSpec) -> list:
    """One representative per isomorphism class, sorted by canonical code.

    Every class kind excludes isolated vertices.  At most
    ``CANDIDATE_GUARD`` candidates are examined.
    """
    counter = _Counter(CANDIDATE_GUARD)
    if spec.kind == "kpqe":
        return _enumerate_kpqe(spec, counter)
    if spec.kind == "degree_class":
        return _enumerate_degree_class(spec, counter)
    if spec.kind == "all_connected_bipartite":
        return _enumerate_connected(spec, counter)
    raise ValueError("unknown class kind %r" % spec.kind)


def _enumerate_kpqe(spec, counter):
    p, q, e = spec.p, spec.q, spec.e
    full = (1 << q) - 1

    def keep(rows):
        used = sum(r.bit_count() for r in rows)
        left = (p - len(rows)) * q
        return used <= e <= used + left

    def accept(rows):
        return sum(r.bit_count() for r in rows) == e and _covers(rows, full)

    level = _classes_mn(p, q, counter, keep_partial=keep, accept=accept)
    return [BipartiteGraph(p, q, rows) for rows in level.values()
            if p < q or _keeps_orientation(rows, q)]


def _enumerate_degree_class(spec, counter):
    degs = sorted(spec.degrees, reverse=True)
    m, total = len(degs), sum(degs)

    def degrees_left(rows):
        remaining = list(degs)
        for r in rows:
            remaining.remove(r.bit_count())
        return set(remaining)

    found = []
    for ny in range(degs[0], total + 1):
        full = (1 << ny) - 1
        level = _classes_mn(m, ny, counter, degrees_left=degrees_left,
                            accept=lambda rows: _covers(rows, full))
        for code, rows in level.items():
            g = BipartiteGraph(m, ny, rows)
            if ny == m:
                # the transpose is a member iff its row degrees are D too
                if sorted(g.degrees_v(), reverse=True) != degs:
                    code = canonical_code(g)
                elif not _keeps_orientation(rows, m):
                    continue
            found.append((code, g))
    found.sort(key=lambda item: item[0])
    return [g for _, g in found]


def _enumerate_connected(spec, counter):
    found = []
    for n in range(1, spec.max_vertices):
        full = (1 << n) - 1
        depth = min(n, spec.max_vertices - n)
        for m, level in _grow(n, depth, counter,
                              accept=lambda rows: _rows_connected(rows, full)):
            for code, rows in level.items():
                if m == n and not _keeps_orientation(rows, n):
                    continue
                g = BipartiteGraph(m, n, rows)
                # shallower levels are all kept as parents anyway; their
                # graph-level test is what the traced benchmark counts
                if m == depth or g.is_connected():
                    found.append((code, g))
    found.sort(key=lambda item: item[0])
    return [g for _, g in found]


@dataclass
class SearchReport:
    """Outcome record of one exhaustive enumeration run.

    ``extremal`` and ``counterexamples`` are the canonical codes of the
    extremal and counterexample graphs, in the same order.
    """

    spec: ClassSpec
    examined: int
    elapsed: float
    checked_property: str
    details: dict
    extremal_graphs: list
    counterexample_graphs: list
    extremal: list = field(init=False)
    counterexamples: list = field(init=False)

    def __post_init__(self):
        self.extremal = [canonical_code(g) for g in self.extremal_graphs]
        self.counterexamples = [canonical_code(g) for g in self.counterexample_graphs]

    def as_dict(self) -> dict:
        return {
            "class": self.spec.as_dict(),
            "examined": self.examined,
            "extremal": self.extremal,
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
            "checked_property": self.checked_property,
            "details": self.details,
        }


def _admit_columns(columns: int, what: str):
    """Raise ``BudgetExceeded`` when a search's widest class has more
    columns than canonical codes support; ``what`` names the column count
    with one ``%d``, as for ``admit``."""
    if columns > MAX_CODE_SIDE:
        raise BudgetExceeded("%s, over the %d-column cap of canonical codes"
                             % (what % columns, MAX_CODE_SIDE))


def _ferrers_check_one(g: BipartiteGraph):
    """(tau*m*n, product of all degrees, equality on a staircase) for one
    graph: the degree-product bound in integers.  The Schur-complement tau
    of every equality case and counterexample is recomputed by the
    Laplacian cofactor."""
    t = tau(g)
    lhs, rhs = t * g.m * g.n, math.prod(g.degrees())
    if lhs >= rhs:
        cofactor = tree_count(laplacian(g))
        if cofactor != t:
            raise InternalCheckError("tau of %r: Schur complement %d, cofactor %d"
                                     % (g, t, cofactor))
    return lhs, rhs, lhs == rhs and is_ferrers(g)


def _pmap(fn, items, jobs):
    if jobs > 1 and len(items) > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            return pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 8)))
    return [fn(item) for item in items]


def _maximizers(graphs, jobs):
    """The top spectral radius of ``graphs`` (None when there are none) and
    the graphs within ``SPECTRAL_TIE_TOL`` of it, in enumeration order."""
    values = _pmap(spectral_radius, graphs, jobs)
    top = max(values, default=None)
    return top, [g for g, v in zip(graphs, values) if v >= top - SPECTRAL_TIE_TOL]


def verify_ferrers_bound(max_vertices: int, jobs: int = 1,
                         budget: int | None = None) -> SearchReport:
    """Check tau <= degree-product invariant over every connected bipartite
    isomorphism class with at most ``max_vertices`` vertices.

    Counterexamples (expected none) are graphs with tau strictly larger;
    extremal graphs attain equality.  Equality cases that fail the
    staircase recognition are surfaced separately in the details.
    """
    admit(max_vertices, DEFAULT_SCAN_VERTICES, budget, "scan of %d vertices")
    _admit_columns(max_vertices - 1, "scan columns range up to max_vertices-1=%d")
    start = time.monotonic()
    spec = ClassSpec.all_connected_bipartite(max_vertices)
    graphs = enumerate_class(spec)
    checked = list(zip(graphs, _pmap(_ferrers_check_one, graphs, jobs)))
    equal = [(g, ferrers) for g, (lhs, rhs, ferrers) in checked if lhs == rhs]
    return SearchReport(
        spec=spec,
        examined=len(graphs),
        elapsed=time.monotonic() - start,
        checked_property="tree_count_le_degree_product",
        details={
            "equality_ferrers": sum(ferrers for _, ferrers in equal),
            "equality_non_ferrers": [canonical_code(g).hex()
                                     for g, ferrers in equal if not ferrers],
        },
        extremal_graphs=[g for g, _ in equal],
        counterexample_graphs=[g for g, (lhs, rhs, _) in checked if lhs > rhs],
    )


def _is_complete_minus_vertex(g: BipartiteGraph) -> bool:
    """True iff removing one vertex leaves a complete bipartite graph."""
    full = (1 << g.n) - 1
    if g.m >= 2:
        for i in range(g.m):
            if all(r == full for idx, r in enumerate(g.rows) if idx != i):
                return True
    if g.n >= 2:
        for j in range(g.n):
            bit = 1 << j
            if all(r | bit == full for r in g.rows):
                return True
    return False


def spectral_search(p: int, q: int, e: int, jobs: int = 1,
                    budget: int | None = None) -> SearchReport:
    """Maximize the adjacency spectral radius over the (p, q, e) class.

    Reports every maximizer within 1e-9 of the optimum.  Each maximizer is
    checked to be a staircase graph (failures become counterexamples) and
    classified for the one-vertex-extension-of-complete-bipartite shape.

    The class admits disconnected members, and for some (p, q, e) the
    optimum is attained only by a disjoint union of complete bipartite
    blocks, which is not a staircase; such maximizers are reported as
    counterexamples together with their connectivity, not suppressed.
    Classes with e too small to cover every vertex are empty and yield an
    empty report.
    """
    spec = ClassSpec.kpqe(p, q, e)
    admit(p * q, DEFAULT_SPECTRAL_PQ, budget, "spectral search over p*q=%d")
    _admit_columns(q, "spectral search needs q=%d columns")
    start = time.monotonic()
    graphs = enumerate_class(spec)
    top, maxima = _maximizers(graphs, jobs)
    return SearchReport(
        spec=spec,
        examined=len(graphs),
        elapsed=time.monotonic() - start,
        checked_property="spectral_radius_maximizer_is_staircase",
        details={
            "lambda_max": top,
            "maximizer_count": len(maxima),
            "one_vertex_extension_shape": [_is_complete_minus_vertex(g) for g in maxima],
            "maximizer_connected": [g.is_connected() for g in maxima],
        },
        extremal_graphs=maxima,
        counterexample_graphs=[g for g in maxima if not is_ferrers(g)],
    )


def degree_class_max(degrees: Partition, jobs: int = 1,
                     budget: int | None = None) -> SearchReport:
    """Maximize the spectral radius over graphs with fixed row degrees.

    The staircase graph with those row degrees must be among the
    maximizers; if it is not, it is recorded as a counterexample.
    """
    degrees = Partition(degrees)
    spec = ClassSpec.degree_class(degrees)
    admit(len(degrees) * degrees[0], DEFAULT_SPECTRAL_PQ, budget,
          "degree class m*d1=%d")
    _admit_columns(sum(degrees), "degree class columns range up to sum(D)=%d")
    start = time.monotonic()
    graphs = enumerate_class(spec)
    top, maxima = _maximizers(graphs, jobs)
    # the staircase is the one Ferrers member of its degree class
    attains = any(is_ferrers(g) for g in maxima)
    beaten = [] if attains else [
        graph_from_code(canonical_code(ferrers_from_partition(degrees, degrees[0])))]
    return SearchReport(
        spec=spec,
        examined=len(graphs),
        elapsed=time.monotonic() - start,
        checked_property="staircase_attains_spectral_max",
        details={"lambda_max": top, "staircase_attains_max": attains},
        extremal_graphs=maxima,
        counterexample_graphs=beaten,
    )
