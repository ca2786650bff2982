"""Graph types, Ferrers construction/recognition, and matrix builders.

``BipartiteGraph`` stores bit-packed biadjacency rows (bit j of row i set
iff u_{i+1} ~ v_{j+1}).  ``Graph`` is a plain vertex-count plus edge set
with 1-based vertices.  Both are immutable named tuples whose constructors
check and normalize their fields, ``_make`` and ``_replace`` included, so
two graphs built from the same edges are equal and hash alike.  Bipartite
graphs convert to general ones with the U-part first (u_1..u_m become
1..m, v_1..v_n become m+1..m+n), so the Laplacian shows the biadjacency
block structure directly.  A graph equals only a graph of its own type,
never a plain tuple, and graphs are not ordered.

Connectivity of both graph types is one bit-row routine, ``_reach``: a
bipartite graph's biadjacency rows, or a general graph's closed
neighbourhoods, are joined from a seed row until nothing more meets it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .budget import GRAPH_FILE_VERTICES, BudgetExceeded
from .partitions import Partition


class GraphFormatError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""


class _Value:
    """Equal only to a value of its own type, hashed by value, unordered:
    a graph is not the tuple of its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError("%s values are not ordered" % type(self).__name__)

    __le__ = __gt__ = __ge__ = __lt__


class BipartiteGraph(_Value, namedtuple("BipartiteGraph", "m n rows")):
    """Simple bipartite graph on parts U (rows) and V (columns)."""

    __slots__ = ()

    def __new__(cls, m, n, rows):
        rows = tuple(map(int, rows))
        if m < 1 or n < 1:
            raise ValueError("both parts must be nonempty")
        if len(rows) != m:
            raise ValueError("expected %d rows, got %d" % (m, len(rows)))
        if min(rows) < 0 or max(rows) > (1 << n) - 1:
            raise ValueError("row mask out of range for %d columns" % n)
        return super().__new__(cls, m, n, rows)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @classmethod
    def from_edges(cls, m: int, n: int, edges) -> "BipartiteGraph":
        """Build from (i, j) pairs meaning u_i ~ v_j, 1-based."""
        rows = [0] * m
        for i, j in edges:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError("edge (%d,%d) out of range" % (i, j))
            rows[i - 1] |= 1 << (j - 1)
        return cls(m, n, rows)

    @property
    def vcount(self) -> int:
        return self.m + self.n

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def edges(self):
        """Yield biadjacency pairs (i, j), row-major, 1-based."""
        for i, r in enumerate(self.rows, start=1):
            mask = r
            while mask:
                low = mask & -mask
                yield (i, low.bit_length())
                mask ^= low

    def degrees_u(self) -> list:
        return [r.bit_count() for r in self.rows]

    def degrees_v(self) -> list:
        deg = [0] * self.n
        for r in self.rows:
            while r:
                low = r & -r
                deg[low.bit_length() - 1] += 1
                r ^= low
        return deg

    def degrees(self) -> list:
        """All vertex degrees, U-part first."""
        return self.degrees_u() + self.degrees_v()

    def transpose(self) -> "BipartiteGraph":
        return BipartiteGraph(self.n, self.m, _transpose_rows(self.rows, self.n))

    def to_graph(self) -> "Graph":
        edges = [(i, self.m + j) for i, j in self.edges()]
        return Graph(self.m + self.n, edges)

    def is_connected(self) -> bool:
        return _rows_connected(self.rows, (1 << self.n) - 1)


class Graph(_Value, namedtuple("Graph", "vcount edges")):
    """Simple undirected graph with vertices 1..vcount."""

    __slots__ = ()

    def __new__(cls, vcount, edges):
        if vcount < 0:
            raise ValueError("negative vertex count")
        norm = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("loop at vertex %d" % a)
            if not (1 <= a <= vcount and 1 <= b <= vcount):
                raise ValueError("edge (%d,%d) out of range" % (a, b))
            norm.add((a, b) if a < b else (b, a))
        return super().__new__(cls, vcount, frozenset(norm))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def degrees(self) -> list:
        deg = [0] * (self.vcount + 1)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg[1:]

    def delete_edge(self, edge) -> "Graph":
        a, b = edge
        key = (a, b) if a < b else (b, a)
        if key not in self.edges:
            raise ValueError("edge %r not present" % (edge,))
        return Graph(self.vcount, self.edges - {key})

    def is_connected(self) -> bool:
        if not self.vcount:
            return True
        return _rows_connected(_closed_rows(self.vcount, self.edges),
                               (1 << self.vcount) - 1)

    def __repr__(self):
        return "Graph(vcount=%d, edges=%d)" % (self.vcount, len(self.edges))


def _reach(rows, seed):
    """``seed`` joined with every row that meets it, repeated until no more
    rows join: the one connectivity loop of the package."""
    pending = rows
    while pending:
        rest = []
        for r in pending:
            if r & seed:
                seed |= r
            else:
                rest.append(r)
        if len(rest) == len(pending):
            break
        pending = rest
    return seed


def _transpose_rows(rows, n):
    """The bit rows of the transpose of the matrix with bit rows ``rows``
    over ``n`` columns."""
    cols = [0] * n
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return tuple(cols)


def _rows_connected(rows, full):
    """Connectivity of the bipartite graph with bit rows ``rows`` over the
    columns in ``full``: False when a row is zero or a column uncovered."""
    return all(rows) and _reach(rows[1:], rows[0]) == full


def _closed_rows(vcount, edges):
    """Closed neighbourhoods of a general graph as bit rows (bit v-1 for
    vertex v); their reach is the whole vertex set exactly when the graph
    is connected."""
    rows = [1 << v for v in range(vcount)]
    for a, b in edges:
        rows[a - 1] |= 1 << (b - 1)
        rows[b - 1] |= 1 << (a - 1)
    return rows


def ferrers_from_partition(lmbda: Partition, ncols: int) -> BipartiteGraph:
    """Staircase biadjacency graph: row i covers columns 1..lambda_i.

    Requires lambda_1 <= ncols.  With lambda_1 < ncols the rightmost
    columns are isolated vertices; the graph is built anyway and reported
    disconnected by ``is_connected``.
    """
    if not len(lmbda):
        raise ValueError("partition must be nonempty")
    if lmbda[0] > ncols:
        raise ValueError("largest part %d exceeds column count %d" % (lmbda[0], ncols))
    return BipartiteGraph(len(lmbda), ncols, [(1 << p) - 1 for p in lmbda])


def is_ferrers(G: BipartiteGraph) -> bool:
    """True iff some row/column permutation puts the biadjacency in staircase form.

    That holds exactly when the row neighbourhoods are nested: sorted by
    size, each lies inside the next.  A staircase also has a full first row
    and a nonempty last one, so graphs with isolated vertices fail.
    """
    rows = sorted(G.rows, key=int.bit_count)
    return (rows[0] != 0 and rows[-1] == (1 << G.n) - 1
            and all(a & ~b == 0 for a, b in zip(rows, rows[1:])))


def laplacian(G) -> list:
    """Laplacian as a dense integer matrix (degree diagonal minus adjacency).

    A bipartite graph is read from its bit rows, U vertices first, as in
    ``to_graph``.
    """
    if isinstance(G, BipartiteGraph):
        edges = [(i, G.m + j) for i, j in G.edges()]
    else:
        edges = G.edges
    n = G.vcount
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        lap[a - 1][b - 1] -= 1
        lap[b - 1][a - 1] -= 1
        lap[a - 1][a - 1] += 1
        lap[b - 1][b - 1] += 1
    return lap


def _normalize(lap) -> list:
    """D^{-1/2} L D^{-1/2} of the integer Laplacian ``lap``, the degrees D
    read off its diagonal."""
    deg = [row[i] for i, row in enumerate(lap)]
    if not all(deg):
        raise ValueError("normalized Laplacian undefined with isolated vertices")
    scale = [1.0 / math.sqrt(d) for d in deg]
    return [
        [x * scale[i] * scale[j] for j, x in enumerate(row)]
        for i, row in enumerate(lap)
    ]


def pendant_add(G: BipartiteGraph, v: int) -> BipartiteGraph:
    """Attach a new degree-1 vertex to ``v`` (combined 1-based index).

    The new vertex lands in the part opposite to ``v``: a new column when v
    is a row vertex, a new row otherwise.
    """
    if not 1 <= v <= G.m + G.n:
        raise ValueError("vertex %d out of range" % v)
    if v <= G.m:
        rows = list(G.rows)
        rows[v - 1] |= 1 << G.n
        return BipartiteGraph(G.m, G.n + 1, rows)
    j = v - G.m
    return BipartiteGraph(G.m + 1, G.n, list(G.rows) + [1 << (j - 1)])


#: header word -> (header line, what its numbers are, edge line, constructor)
_FILE_KINDS = {
    "bipartite": ("bipartite m n", "part sizes", "e i j", BipartiteGraph.from_edges),
    "general": ("general n", "vertex count", "i j", Graph),
}


def _admit_file(vertices: int):
    """Refuse a graph file over ``GRAPH_FILE_VERTICES`` vertices, however many."""
    if vertices > GRAPH_FILE_VERTICES:
        raise BudgetExceeded("graph file of %d vertices exceeds the cap of %d"
                             % (vertices, GRAPH_FILE_VERTICES))


def parse_graph_file(text: str):
    """Parse the one-graph text format.

    Line 1 is "bipartite m n" or "general n"; later nonblank lines are
    edges: "e i j" (u_i ~ v_j) for bipartite, "i j" for general.  A header
    over ``GRAPH_FILE_VERTICES`` vertices raises ``BudgetExceeded`` before
    anything is built.
    """
    lines = text.splitlines()
    header = None
    ln = 0
    for ln, line in enumerate(lines, start=1):
        if line.strip():
            header = line.split()
            break
    if header is None:
        raise GraphFormatError("line 1: empty graph file")
    if header[0] not in _FILE_KINDS:
        raise GraphFormatError("line %d: unknown header %r" % (ln, header[0]))
    form, sizes_name, edge_form, build = _FILE_KINDS[header[0]]
    if len(header) != len(form.split()):
        raise GraphFormatError("line %d: expected '%s'" % (ln, form))
    try:
        sizes = [int(tok) for tok in header[1:]]
    except ValueError:
        raise GraphFormatError("line %d: bad %s" % (ln, sizes_name)) from None
    # a negative size, refused once built, may not offset a huge one
    _admit_file(sum(max(size, 0) for size in sizes))
    prefix = edge_form.split()[:-2]
    edges = []
    for off, line in enumerate(lines[ln:], start=ln + 1):
        toks = line.split()
        if not toks:
            continue
        if len(toks) != len(prefix) + 2 or toks[:-2] != prefix:
            raise GraphFormatError("line %d: expected '%s'" % (off, edge_form))
        try:
            edges.append((int(toks[-2]), int(toks[-1])))
        except ValueError:
            raise GraphFormatError("line %d: bad edge indices" % off) from None
    try:
        return build(*sizes, edges)
    except ValueError as exc:
        raise GraphFormatError("graph body: %s" % exc) from None


def format_graph(G) -> str:
    """Serialize a graph in the format accepted by ``parse_graph_file``."""
    if isinstance(G, BipartiteGraph):
        lines = ["bipartite %d %d" % (G.m, G.n)]
        lines += ["e %d %d" % (i, j) for i, j in G.edges()]
    else:
        lines = ["general %d" % G.vcount]
        lines += ["%d %d" % (a, b) for a, b in G.sorted_edges()]
    return "\n".join(lines) + "\n"
