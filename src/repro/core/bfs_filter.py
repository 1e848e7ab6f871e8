"""BFS-filter — the paper's Algorithm 11 (upper-bounds filtering).

A "modified BFS" from vertex ``v`` over the active subgraph decides whether
the shortest *closed walk* through ``v`` has length ``U <= k``. Any simple
cycle through ``v`` is such a walk, so ``U > k`` proves ``v`` is on no
constrained cycle and the expensive exact validation can be skipped
(Figure 4 of the paper shows why ``U <= k`` proves nothing — the walk may
revisit vertices — hence the surviving vertices still go through
Algorithm 9).

The predicate is evaluated as a meet-in-the-middle search (bidirectional
search; Pohl, "Bi-directional search", Machine Intelligence 6, 1971): one
level search runs forward from ``v`` over ``out_lists``, one backward over
``in_lists``, and each step expands the smaller frontier by one level
until the two depths sum to ``k``. A forward path ``v -> w`` of length
``a`` and a backward one of length ``b`` close a walk of length ``a + b``,
so a vertex reached by one side that the other has already stamped ends
the search; ``v`` is stamped by both at depth 0, which makes an edge back
into ``v`` such a meeting. A short closed walk needs both of its halves,
so the search stops as soon as either side runs out of vertices. Each
level spends only the lists of the side that expands, which on a
branching graph is far less than one search to depth ``k - 1``.

The walk lower bound is kept valid for the no-2-cycle problem too: a
length-2 closure (mutual edge) still *flags* the vertex — excluding it
from the filter could wrongly prune a vertex whose only short closure to
an in-neighbor is a shortcut edge (see DESIGN.md). The filter is a pure
may-analysis; the verifier enforces the length->=3 rule.
"""
from __future__ import annotations

from collections.abc import Sequence

from .engine import OpBudget, Workspace


def bfs_filter(g, v: int, k: int, active: Sequence[bool], ws: Workspace,
               budget: OpBudget) -> bool:
    """True iff ``v`` lies on a closed walk of length <= k in the active
    subgraph plus ``v`` (i.e. the vertex *needs* exact validation).
    ``active`` is read once per edge, so callers pass a Python list."""
    if k < 2:
        return False
    epoch = ws.new_epoch()
    fwd_stamp, back_stamp = ws.dist_stamp, ws.back_stamp
    out, inn = g.out_lists, g.in_lists
    spend = budget.spend
    fwd_stamp[v] = back_stamp[v] = epoch
    fwd, back = [v], [v]
    depth = 0  # forward depth + backward depth
    while depth < k:
        if len(fwd) <= len(back):
            frontier, lists, own, other = fwd, out, fwd_stamp, back_stamp
        else:
            frontier, lists, own, other = back, inn, back_stamp, fwd_stamp
        if not frontier:
            return False
        nxt = []
        for u in frontier:
            nbrs = lists[u]
            spend(len(nbrs))
            for w in nbrs:
                if other[w] == epoch:
                    return True
                if own[w] != epoch and active[w]:
                    own[w] = epoch
                    nxt.append(w)
        if frontier is fwd:
            fwd = nxt
        else:
            back = nxt
        depth += 1
    return False
