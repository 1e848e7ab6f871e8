"""Shared kernel machinery: operation budgets and reusable scratch arrays.

All sequential kernels (FindCycle, the blocked node-necessary search, the
BFS filter, DARC) account their work in *edge traversals* against an
:class:`OpBudget`. Budgets make "did not finish" deterministic and safe to
use inside Spark executors (no wall-clock alarms, no signals), which is how
the Table III ``-`` cells for the large datasets are reproduced.

:class:`Workspace` owns the per-graph scratch arrays (DFS stack membership,
block values, BFS distances) with *version stamping* so that a fresh
logical array is available in O(1) per search instead of O(n) reallocation
— essential because the top-down driver runs up to ``n`` searches.

The searches read one per-vertex value per edge, so every per-vertex
array they touch is a Python list: the workspace fields here, the
``accepted``/``alive`` masks of the top-down, bottom-up, pruning and
verifier loops, Tarjan's index/low, and DARC's line-graph scratch. Reading a
list element costs several times less than reading a numpy scalar;
numpy stays in the whole-array steps (CSR build, degree order, SCC edge
masks, label mapping).
"""
from __future__ import annotations


class OpBudgetExceeded(Exception):
    """Raised by a kernel once its operation budget is exhausted."""

    def __init__(self, spent: int, limit: int):
        super().__init__(f"op budget exceeded: spent {spent} >= limit {limit}")
        self.spent = spent
        self.limit = limit


class OpBudget:
    """Counts kernel operations (edge traversals) against a hard limit.

    ``limit=None`` means unlimited (tests / small graphs). ``spend`` is
    called in hot loops, so it is deliberately branch-light.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.spent = 0

    def spend(self, ops: int = 1) -> None:
        self.spent += ops
        if self.limit is not None and self.spent >= self.limit:
            raise OpBudgetExceeded(self.spent, self.limit)


class Workspace:
    """Reusable stamped scratch lists for the search kernels.

    ``block`` / ``block_stamp``: per-vertex block (barrier) values, valid
    only when the stamp matches the current search epoch — ``new_epoch()``
    invalidates all blocks in O(1).

    ``in_stack``: DFS path membership. It is *not* stamped: the DFS
    discipline (push/pop symmetric, cleared on success, failure and budget
    exhaustion) keeps it all-False between searches; the tests check that.

    ``dist`` / ``dist_stamp`` and ``queue``: BFS scratch for the filter.
    """

    __slots__ = (
        "n", "block", "block_stamp", "in_stack", "dist", "dist_stamp",
        "queue", "_epoch",
    )

    def __init__(self, n: int):
        self.n = n
        self.block = [0] * n
        self.block_stamp = [0] * n
        self.in_stack = [False] * n
        self.dist = [0] * n
        self.dist_stamp = [0] * n
        self.queue = [0] * max(n, 1)
        self._epoch = 0

    def new_epoch(self) -> int:
        """Start a search epoch; all stamped values become stale."""
        self._epoch += 1
        return self._epoch
