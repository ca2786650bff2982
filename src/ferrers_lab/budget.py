"""Budget guards for the enumeration-heavy operations.

Each guarded operation has a default cap in its own unit (vertices, p*q,
m*d1 or spanning trees), which the command's ``--budget`` flag replaces
for that one request.  A separate hard candidate guard,
``CANDIDATE_GUARD``, bounds how many raw candidates any class enumeration
may examine, to keep runaway requests from exhausting memory, and
``NODE_GUARD`` how many nodes any one canonizer search may visit, so that
a highly symmetric class stops in seconds; no flag touches either.
``_Counter`` enforces both.  Another, ``GRAPH_FILE_VERTICES``, bounds the
vertex count a graph file may declare; it is checked on the header,
before anything is built.  At 100 vertices the slowest per-graph command
(``thm71``, then ``spectral``) takes about 5 s on a 2-core machine.
``_pmap``, which runs the searches' per-graph checks, bounds their worker
processes by the CPUs and the items, and reads a stream a batch at a time.
"""

from __future__ import annotations

import itertools
import os

DEFAULT_TREE_BUDGET = 10 ** 6
DEFAULT_SCAN_VERTICES = 10
DEFAULT_SPECTRAL_PQ = 24
DEFAULT_THM71_VERTICES = 7
CANDIDATE_GUARD = 20_000_000
NODE_GUARD = 700_000
GRAPH_FILE_VERTICES = 100
#: how many items of a stream ``_pmap`` reads ahead of their results: a
#: serial scan that checks its classes a batch at a time, not each as it
#: grows, is about a tenth faster; a pool takes larger batches, which cost
#: fewer round trips, and reads the next one while its workers run one
_BATCH = 128
_POOL_BATCH = 4096


class BudgetExceeded(RuntimeError):
    """An operation would exceed its configured budget.

    ``progress`` may carry partial results gathered before the guard hit.
    """

    def __init__(self, message, progress=None):
        super().__init__(message)
        self.progress = progress


def admit(amount: int, default: int, budget: int | None, what: str):
    """Raise ``BudgetExceeded`` when ``amount`` is over ``budget``, or over
    ``default`` when no budget is given.

    ``what`` names the request with one ``%d`` for the amount, e.g.
    "scan of %d vertices".
    """
    cap = default if budget is None else budget
    if amount > cap:
        raise BudgetExceeded("%s exceeds the budget of %d" % (what % amount, cap))


class _Counter:
    """Candidates a class enumeration examined, bounded by ``guard``, and
    nodes its current canonizer search visited, at most ``NODE_GUARD``;
    knows where growth is."""

    __slots__ = ("candidates", "guard", "columns", "rows_done", "classes", "nodes")

    def __init__(self, guard=CANDIDATE_GUARD):
        self.candidates = self.columns = self.rows_done = self.classes = self.nodes = 0
        self.guard = guard

    def bump(self):
        self.candidates += 1
        if self.candidates > self.guard:
            self._stop("class enumeration examined more than %d candidates" % self.guard)

    def search(self):
        """Begin a canonizer search, with no node visited yet."""
        self.nodes = 0
        return self

    def node(self):
        self.nodes += 1
        if self.nodes > NODE_GUARD:
            self._stop("a canonizer search visited more than %d nodes" % NODE_GUARD)

    def _stop(self, message):
        raise BudgetExceeded(message, progress={key: getattr(self, key) for key in (
            "columns", "rows_done", "classes", "candidates", "nodes")})


def _pmap(fn, items, jobs):
    """Yield ``fn(x)`` for each x of the iterable ``items``, in order, over
    a pool of at most ``jobs`` worker processes, and never more than there
    are CPUs or items; serial when that leaves one.  Items are read a
    batch at a time, so a stream is held at most two batches ahead of its
    results."""
    items = iter(items)
    batch = list(itertools.islice(items, _BATCH))
    workers = min(jobs, len(batch), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.imap(fn, batch, chunksize=max(1, len(batch) // (workers * 8)))
            while batch:
                batch = list(itertools.islice(items, _POOL_BATCH))
                ahead = pool.imap(fn, batch, chunksize=max(1, len(batch) // (workers * 8)))
                yield from results
                results = ahead
    while batch:
        yield from map(fn, batch)
        batch = list(itertools.islice(items, _BATCH))
