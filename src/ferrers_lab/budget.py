"""Budget guards for the enumeration-heavy operations.

Each guarded operation has a default cap in its own unit (vertices, p*q,
m*d1 or spanning trees), which the command's ``--budget`` flag replaces
for that one request.  A separate hard candidate guard,
``CANDIDATE_GUARD``, bounds how many raw candidates any class enumeration
may examine, to keep runaway requests from exhausting memory; no flag
touches it.  Another, ``GRAPH_FILE_VERTICES``, bounds the vertex count a
graph file may declare; it is checked on the header, before anything is
built.  At 100 vertices the slowest per-graph command (``thm71``, then
``spectral``) takes about 7 s on a 2-core machine.
"""

from __future__ import annotations

DEFAULT_TREE_BUDGET = 10 ** 6
DEFAULT_SCAN_VERTICES = 10
DEFAULT_SPECTRAL_PQ = 24
DEFAULT_THM71_VERTICES = 7
CANDIDATE_GUARD = 20_000_000
GRAPH_FILE_VERTICES = 100


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
