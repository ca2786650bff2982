"""Exhaustive bipartite class enumeration and the extremal searches.

Isomorphism classes are keyed by a canonical code: the lexicographically
least tuple of biadjacency row values reachable by row and column
permutations (plus the part swap when the parts have equal size).  The
code is found by a pruned branch-and-bound that picks rows greedily while
refining an ordered partition of the columns, so only permutations
consistent with the refinement are ever touched.  Each search visits at
most ``budget.NODE_GUARD`` nodes, or raises ``BudgetExceeded``; an entry
point charges the ``budget._Counter`` it is passed, or a fresh one.  It
is the package's only canonizer: ``resistance`` keys general graphs by
the code of their vertex-edge incidence matrix (vertices as rows, edges
as columns).

Classes are generated row by row, once per column count, by orderly
generation (Read 1978): a candidate is kept only when it is its own code.
The code is nondecreasing, its first k values are the code of those k
rows, and each value fills the low end of the twin-column groups of the
values above it; so each kept matrix is extended by those fills no less
than its last row, and every class with parts fixed is reached exactly
once.  One walk of a parent's search tree decides all its candidates at
once.  The parent is a code, so wherever that walk goes its own rows are
at or above the target, and only the new row's value there matters: below
the target it rejects the candidate, and equal to it the same search runs
below placing the new row, descending only while the prefix equals the
candidate and stopping at the first smaller one.  At the last level the
class filters (connectivity, edge count, no empty column) run on the bit
rows first.  Growth hands out each parent with the children that pass its
code test, and holds only the parents of the level it grows.

Growth holds the parts fixed, so a class with parts of equal size can be
reached twice, once per orientation.  Every class kind keeps a square
class whose transpose is in the class iff no labeling of the transpose
is below its own code (the same early-stopping search, bounded by that
code), so of the two orientations the one with the smaller code stays,
and its code is already the full code.  The connected scan and the kpqe
classes with p = q are closed under the part swap.  A degree class fixes
the row degrees only: it holds a square member's transpose exactly when
the member's column degrees, sorted, equal its own, and a member whose
transpose it does not hold is kept and keyed by ``canonical_code``, its
one call on a search's path.  Every level is in ascending code order;
each class is handed out keyed by its code, and search reports carry it.

Searches shard their per-graph checks over a process pool when asked;
results stream back in enumeration order, so reports are byte-identical
regardless of worker count.  The pool never has more workers than CPUs
or items, and reads a stream a batch at a time.  The degree-product scan
builds no class map: ``enumerate_class`` checks each connected class as
growth hands it out, and the scan keeps only the class count, the tight
classes and the failing ones.  It compares tau*m*n with the product of
the degrees, both integers, through ``trees._degree_product``, which
takes the degrees from the Schur-complement pass and recomputes its tree
count on every equality case and counterexample, by the product formula
on a staircase and by the Laplacian cofactor otherwise; a disagreement
raises ``InternalCheckError``.

No class holds an isolated vertex, and no kpqe class (e < p*q) holds the
complete graph; reports record both facts as the ``no_isolated`` and
``exclude_complete`` flags of the class, which are not options.
"""

from __future__ import annotations

import itertools
import struct
import time
from collections import namedtuple

from .budget import (
    CANDIDATE_GUARD,
    DEFAULT_SCAN_VERTICES,
    DEFAULT_SPECTRAL_PQ,
    BudgetExceeded,
    _Counter,
    _pmap,
    admit,
)
from .exactla import InternalCheckError
from .graphs import (
    BipartiteGraph,
    _rows_connected,
    _transpose_rows,
    is_ferrers,
)
from .partitions import TOL, Partition
from .spectral import spectral_radius
from .trees import _degree_product

MAX_CODE_SIDE = 12


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


def _split(remaining, cells, r, counter):
    """``remaining`` less one copy of row ``r``, and ``cells`` with each
    cell split into its zeros of ``r``, then its ones; a node of the
    search."""
    counter.node()
    rest = list(remaining)
    rest.remove(r)
    newcells = []
    for cell in cells:
        cellmask, width = cell
        ones = cellmask & r
        if not ones:  # kept whole, with no new tuple
            newcells.append(cell)
            continue
        k = ones.bit_count()
        if k < width:
            newcells.append((cellmask ^ ones, width - k))
        newcells.append((ones, k))
    return rest, newcells


def _code_rows(rows, n, bound=None, counter=None):
    """Least tuple of row values over row/column permutations (parts fixed).

    The search prunes against ``bound`` from the start, so it returns
    min(code, bound) and gives up on a branch as soon as it exceeds bound.
    """
    counter = (counter or _Counter()).search()
    return _least_code(list(rows), [((1 << n) - 1, n)], [], bound, counter)


def _least_code(remaining, cells, acc, best, counter):
    """The least of ``best`` (None for none) and the codes that complete
    the prefix ``acc`` with the ``remaining`` rows under the column
    ``cells``; a branch whose prefix exceeds ``best`` is not searched."""
    if not remaining:
        cand = tuple(acc)
        return cand if best is None or cand < best else best
    vals = _row_values(remaining, cells)
    vmin = min(vals.values())
    acc.append(vmin)
    if best is None or tuple(acc) <= best[:len(acc)]:
        for r, v in vals.items():
            if v == vmin:
                best = _least_code(*_split(remaining, cells, r, counter), acc, best,
                                   counter)
    acc.pop()
    return best


def _descend(remaining, cells, least, counter):
    """True iff no labeling that completes the node (``remaining`` rows
    still to place under the column ``cells``) is below ``least``.

    Descends only while the prefix equals ``least``, and returns False at
    the first row value below it, since every leaf under a smaller prefix
    is a smaller code.
    """
    target = least[len(least) - len(remaining)]
    vals = _row_values(remaining, cells, target)
    if vals is None:
        return False
    if len(remaining) == 1:
        return True
    for r, v in vals.items():
        if v == target and not _descend(*_split(remaining, cells, r, counter), least,
                                        counter):
            return False
    return True


def _is_code(rows, n, least, counter=None):
    """True iff no labeling of ``rows`` is below ``least``:
    ``_code_rows(rows, n, least) == least``.  With ``least`` = ``rows`` it
    decides whether ``rows`` is its own code."""
    counter = (counter or _Counter()).search()
    return _descend(list(rows), [((1 << n) - 1, n)], least, counter)


def _code_masks(rows, n, masks, counter=None):
    """The masks x of ``masks``, in the order given, for which
    ``rows + (x,)`` is its own code; ``rows`` must be a code.

    One walk of the search of ``rows`` decides them all.  Since ``rows`` is
    a code, at every node reached by placing its rows only, those rows
    are at or above the target, so a child's verdict there rests on x
    alone: x below the target rejects it, and x equal to it must survive
    the search below placing x.  Past the last row of ``rows`` x is the
    target itself.  The walk is one search.
    """
    if not masks:
        return []
    counter = (counter or _Counter()).search()
    return _walk_masks(rows, list(rows), [((1 << n) - 1, n)], list(masks), counter)


def _walk_masks(rows, remaining, cells, alive, counter):
    """The masks of ``alive`` that survive the walk of the search of the
    code ``rows`` below the node with ``remaining`` rows still to place
    under the column ``cells``."""
    vals = _row_values(alive, cells)
    if not remaining:
        return [x for x in alive if vals[x] >= x]
    target = rows[len(rows) - len(remaining)]
    parent = _row_values(remaining, cells)
    # x equal to a row of ``rows`` still to place ties in that row's
    # branch, which the walk takes below
    alive = [x for x in alive if vals[x] > target or vals[x] == target and (
        x in parent or _descend(*_split(remaining + [x], cells, x, counter),
                                rows + (x,), counter))]
    for r, v in parent.items():
        if alive and v == target:
            alive = _walk_masks(rows, *_split(remaining, cells, r, counter), alive,
                                counter)
    return alive


def _keeps_orientation(rows, n, counter=None):
    """True iff the square code ``rows`` is not above the code of its
    transpose: a class reached in both orientations keeps only the one with
    the smaller code, which is then its full canonical code."""
    return _is_code(_transpose_rows(rows, n), n, rows, counter)


def _serialize(m, n, values) -> bytes:
    """The bytes m and n, then each value in two bytes, big-endian."""
    return struct.pack(">%dH" % (len(values) + 1), m << 8 | n, *values)


def canonical_code(G: BipartiteGraph, counter=None) -> bytes:
    """Isomorphism-invariant byte code; equal codes mean isomorphic graphs.

    Parts are held fixed; when the two parts have the same size the code
    also minimizes over swapping them.  Limited to 12 rows/columns.  A
    search past ``budget.NODE_GUARD`` nodes raises ``BudgetExceeded``, with
    the progress of ``counter`` (an enumeration's) when one is passed.
    """
    if G.m > MAX_CODE_SIDE or G.n > MAX_CODE_SIDE:
        raise ValueError("canonical codes support at most %d rows/columns"
                         % MAX_CODE_SIDE)
    rows = _code_rows(G.rows, G.n, None, counter)
    if G.m == G.n:
        rows = _code_rows(G.transpose().rows, G.m, rows, counter)
    return _serialize(G.m, G.n, rows)


def graph_from_code(code: bytes) -> BipartiteGraph:
    """The graph whose biadjacency rows a canonical code lists.  A code
    whose length is not 2 + 2m for its m rows, or whose part sizes are
    outside 1..12, raises ``ValueError``."""
    if len(code) < 2 or not (1 <= code[0] <= MAX_CODE_SIDE
                             and 1 <= code[1] <= MAX_CODE_SIDE):
        raise ValueError("code %r: part sizes must be 1..%d"
                         % (code.hex(), MAX_CODE_SIDE))
    m, n = code[0], code[1]
    if len(code) != 2 + 2 * m:
        raise ValueError("code %r: %d bytes, %d rows need %d"
                         % (code.hex(), len(code), m, 2 + 2 * m))
    rows = [
        int.from_bytes(code[2 + 2 * i: 4 + 2 * i], "big") for i in range(m)
    ]
    return BipartiteGraph(m, n, rows)


class ClassSpec(namedtuple("ClassSpec", "kind p q e degrees max_vertices",
                           defaults=(0, 0, 0, (), 0))):
    """A family of bipartite graphs to enumerate up to isomorphism."""

    __slots__ = ()

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
    """Yield the families of the m x n biadjacency classes without zero
    rows (parts fixed), m = 1..depth: a parent's code rows and the masks x,
    ascending, for which rows + (x,) is a class and its own code.

    ``keep_partial(rows)`` may reject a partial matrix (filters that hold
    for every row prefix of a member, e.g. edge budgets); rejected partials
    are never extended.  ``degrees_left(rows)`` narrows the next row to
    those degrees.  ``accept(rows)`` is a class-invariant filter run before
    the code test at the last level only.  ``counter`` counts every
    candidate examined and records where growth is.  Each level is in
    ascending code order, since parents come in that order and their masks
    ascend; only the parents of the level being grown are held.
    """
    if n > MAX_CODE_SIDE or depth > MAX_CODE_SIDE:
        raise ValueError("canonical codes support at most %d rows/columns"
                         % MAX_CODE_SIDE)
    counter.columns = n
    level = [()]
    for m in range(1, depth + 1):
        last = m == depth
        counter.rows_done, counter.classes = m - 1, len(level)
        nxt = []
        for rows in level:
            floor = rows[-1] if rows else 0
            masks = [x for x in _twin_masks(rows, n) if x >= floor]
            if degrees_left is not None:
                allowed = degrees_left(rows)
                masks = [x for x in masks if x.bit_count() in allowed]
            kept = []
            for mask in masks:
                counter.bump()
                cand = rows + (mask,)
                if keep_partial is not None and not keep_partial(cand):
                    continue
                if last and accept is not None and not accept(cand):
                    continue
                kept.append(mask)
            kept = _code_masks(rows, n, kept, counter)
            yield rows, kept
            if not last:
                nxt += [rows + (x,) for x in kept]
        level = nxt


def _classes_mn(m, n, counter, **filters):
    """The m x n classes of ``_grow``: {parts-fixed code: code rows}."""
    return {_serialize(m, n, rows + (x,)): rows + (x,)
            for rows, masks in _grow(n, m, counter, **filters) if len(rows) == m - 1
            for x in masks}


def _covers(rows, full):
    """True iff no column of the bit rows is empty."""
    cover = 0
    for r in rows:
        cover |= r
    return cover == full


def enumerate_class(spec: ClassSpec, check=None, jobs: int = 1):
    """{canonical code: representative graph}, one entry per isomorphism
    class, in ascending code order.

    Every class kind excludes isolated vertices.  At most
    ``CANDIDATE_GUARD`` candidates are examined.

    The connected classes can be checked as they grow instead, with no map
    of them built: ``check(g)``, run on ``jobs`` worker processes, returns
    a value to keep for the class g, or None.  The result is then the class
    count and {code: value} of the classes kept, in code order.
    """
    counter = _Counter(CANDIDATE_GUARD)
    if spec.kind == "kpqe":
        return _enumerate_kpqe(spec, counter)
    if spec.kind == "degree_class":
        return _enumerate_degree_class(spec, counter)
    if spec.kind == "all_connected_bipartite":
        return _enumerate_connected(spec, counter, check, jobs)
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
    return {code: BipartiteGraph(p, q, rows) for code, rows in level.items()
            if p < q or _keeps_orientation(rows, q, counter)}


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
                    code = canonical_code(g, counter)
                elif not _keeps_orientation(rows, m, counter):
                    continue
            found.append((code, g))
    return dict(sorted(found, key=lambda item: item[0]))


def _connected_classes(max_vertices, counter):
    """The connected classes on at most ``max_vertices`` vertices, rows no
    more than columns, as graphs, n ascending, then m; a square class keeps
    its smaller orientation."""
    for n in range(1, max_vertices):
        full = (1 << n) - 1
        depth = min(n, max_vertices - n)
        for rows, masks in _grow(n, depth, counter,
                                 accept=lambda rows: _rows_connected(rows, full)):
            m = len(rows) + 1
            for x in masks:
                g = BipartiteGraph(m, n, rows + (x,))
                if m < depth:
                    # shallower levels are all kept as parents anyway; their
                    # graph-level test is what the traced benchmark counts
                    if g.is_connected():
                        yield g
                elif m < n or _keeps_orientation(g.rows, n, counter):
                    yield g


def _enumerate_connected(spec, counter, check, jobs):
    graphs = _connected_classes(spec.max_vertices, counter)
    if check is None:
        return dict(sorted((_serialize(g.m, g.n, g.rows), g) for g in graphs))
    # ``_pmap`` reads the classes a batch ahead; ``keys`` holds only those
    graphs, keys = itertools.tee(graphs)
    examined, found = 0, []
    for g, value in zip(keys, _pmap(check, graphs, jobs)):
        examined += 1
        if value is not None:
            found.append((_serialize(g.m, g.n, g.rows), value))
    return examined, dict(sorted(found))


class SearchReport(namedtuple("SearchReport", "spec examined elapsed checked_property"
                                              " details extremal counterexamples")):
    """Outcome record of one exhaustive enumeration run.

    ``extremal`` and ``counterexamples`` map canonical codes to graphs, in
    enumeration order; the codes are the keys of ``enumerate_class``.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "class": self.spec.as_dict(),
            "examined": self.examined,
            "extremal": list(self.extremal),
            "counterexamples": list(self.counterexamples),
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
    """None when tau*m*n is below the product of all degrees, and else
    whether it exceeds it (a counterexample), from
    ``trees._degree_product``."""
    _, lhs, rhs = _degree_product(g)
    return lhs > rhs if lhs >= rhs else None


def _maximizers(classes, jobs):
    """The top spectral radius of the {code: graph} map ``classes`` (None if
    it is empty), and the map of those within ``TOL`` of it."""
    values = list(_pmap(spectral_radius, classes.values(), jobs))
    top = max(values, default=None)
    return top, {code: g for (code, g), v in zip(classes.items(), values)
                 if v >= top - TOL}


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
    examined, found = enumerate_class(spec, _ferrers_check_one, jobs)
    equal = {code: graph_from_code(code) for code, failing in found.items() if not failing}
    others = [code.hex() for code, g in equal.items() if not is_ferrers(g)]
    return SearchReport(
        spec=spec,
        examined=examined,
        elapsed=time.monotonic() - start,
        checked_property="tree_count_le_degree_product",
        details={
            "equality_ferrers": len(equal) - len(others),
            "equality_non_ferrers": others,
        },
        extremal=equal,
        counterexamples={code: graph_from_code(code) for code, failing in found.items()
                         if failing},
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
    classes = enumerate_class(spec)
    top, maxima = _maximizers(classes, jobs)
    return SearchReport(
        spec=spec,
        examined=len(classes),
        elapsed=time.monotonic() - start,
        checked_property="spectral_radius_maximizer_is_staircase",
        details={
            "lambda_max": top,
            "maximizer_count": len(maxima),
            "one_vertex_extension_shape": [_is_complete_minus_vertex(g)
                                           for g in maxima.values()],
            "maximizer_connected": [g.is_connected() for g in maxima.values()],
        },
        extremal=maxima,
        counterexamples={code: g for code, g in maxima.items() if not is_ferrers(g)},
    )


def degree_class_max(degrees: Partition, jobs: int = 1,
                     budget: int | None = None) -> SearchReport:
    """Maximize the spectral radius over graphs with fixed row degrees.

    The staircase graph with those row degrees must be among the
    maximizers; if it is not, it is recorded as a counterexample.  A class
    without exactly one staircase member raises ``InternalCheckError``.
    """
    degrees = Partition(degrees)
    spec = ClassSpec.degree_class(degrees)
    admit(len(degrees) * degrees[0], DEFAULT_SPECTRAL_PQ, budget,
          "degree class m*d1=%d")
    _admit_columns(sum(degrees), "degree class columns range up to sum(D)=%d")
    start = time.monotonic()
    classes = enumerate_class(spec)
    top, maxima = _maximizers(classes, jobs)
    staircase = {code: g for code, g in classes.items() if is_ferrers(g)}
    if len(staircase) != 1:
        raise InternalCheckError("degree class %s has %d staircase members, not 1"
                                 % (degrees, len(staircase)))
    attains = staircase.keys() <= maxima.keys()
    return SearchReport(
        spec=spec,
        examined=len(classes),
        elapsed=time.monotonic() - start,
        checked_property="staircase_attains_spectral_max",
        details={"lambda_max": top, "staircase_attains_max": attains},
        extremal=maxima,
        counterexamples={} if attains else staircase,
    )
