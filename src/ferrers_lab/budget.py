"""Budget guards for the enumeration-heavy operations.

Each guarded operation has a default cap; the FERRERS_LAB_BUDGET
environment variable, when set, replaces the default at every site that
does not receive an explicit override.  A separate hard candidate guard,
``CANDIDATE_GUARD``, bounds how many raw candidates any class enumeration
may examine, to keep runaway requests from exhausting memory; the
variable never touches the guard.
"""

from __future__ import annotations

import os

DEFAULT_TREE_BUDGET = 10 ** 6
DEFAULT_SCAN_VERTICES = 10
DEFAULT_SPECTRAL_PQ = 24
DEFAULT_THM71_VERTICES = 7
CANDIDATE_GUARD = 20_000_000


class BudgetExceeded(RuntimeError):
    """An operation would exceed its configured budget.

    ``progress`` may carry partial results gathered before the guard hit.
    """

    def __init__(self, message, progress=None):
        super().__init__(message)
        self.progress = progress


def budget_cap(default: int, override: int | None = None) -> int:
    """Resolve a budget: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get("FERRERS_LAB_BUDGET")
    return int(env) if env else default


def admit(amount: int, default: int, budget: int | None, what: str):
    """Raise ``BudgetExceeded`` when ``amount`` is over the resolved cap.

    ``what`` names the request with one ``%d`` for the amount, e.g.
    "scan of %d vertices".
    """
    cap = budget_cap(default, budget)
    if amount > cap:
        raise BudgetExceeded("%s exceeds the budget of %d" % (what % amount, cap))
