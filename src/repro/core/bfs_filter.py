"""BFS-filter — the paper's Algorithm 11 (upper-bounds filtering).

A "modified BFS" from vertex ``v`` over the active subgraph computes the
length ``U`` of the shortest *closed walk* through ``v``. Any simple cycle
through ``v`` is such a walk, so ``U > k`` proves ``v`` is on no
constrained cycle and the expensive exact validation can be skipped
(Figure 4 of the paper shows why ``U <= k`` proves nothing — the walk may
revisit vertices — hence the surviving vertices still go through
Algorithm 9).

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
    subgraph (i.e. the vertex *needs* exact validation). ``active`` is
    read once per edge, so callers pass a Python list."""
    if k < 2:
        return False
    epoch = ws.new_epoch()
    dist = ws.dist
    stamp = ws.dist_stamp
    queue = ws.queue
    out = g.out_lists
    spend = budget.spend
    head = tail = 0
    queue[tail] = v
    tail += 1
    dist[v] = 0
    stamp[v] = epoch
    while head < tail:
        u = queue[head]
        head += 1
        d = dist[u]
        nbrs = out[u]
        spend(len(nbrs))
        for w in nbrs:
            if w == v:
                # closed walk of length d+1 (d+1 >= 2 here: self-loops
                # are dropped by CSR, so d >= 1 when w == v... except
                # d == 0 is impossible for the same reason)
                if d + 1 <= k:
                    return True
                continue
            if d + 1 > k - 1:
                continue
            if not active[w] or stamp[w] == epoch:
                continue
            stamp[w] = epoch
            dist[w] = d + 1
            queue[tail] = w
            tail += 1
    return False
