"""The hop-bounded cycle search: FindCycle (Algorithm 5) and block-based
node-necessary validation (Algorithms 9 & 10) as one kernel.

Both are a DFS from ``s`` back to ``s`` over the active vertices; they
differ only in the BC-DFS barriers (Peng et al., VLDB'19). With
``blocked=True`` a failure at vertex ``u`` explored at depth ``d``
records the certificate ``block[u] = k - d + 1`` (a valid lower bound on
``sd(u, s | S)``), which prunes every later visit of ``u`` at depth
``>= d``. Theorem 6: each vertex is pushed at most ``k`` times, so one
validation costs ``O(k·m)``. ``blocked=False`` is the plain search of
Algorithm 5 that makes BUR/BUR+ (and plain TDB) slow, worst case
``O(n^k)`` as analyzed in §V. Blocks only cut subtrees that hold no
cycle, so both modes return the same first cycle in DFS order.

The DFS runs on an explicit stack: one frame per path vertex holding its
neighbor iterator, so the path may be as long as ``n`` (the ``k=None``
variant) without touching the interpreter's recursion limit. Each frame
spends its out-degree against the budget once, when it is opened. A frame
at depth ``k - 1`` can only close the cycle through ``s``, so its parent
runs it inline (one membership test on its neighbor list, and its block
certificate on failure) instead of pushing it; the visiting order and the
op count are those of the pushed frame. All per-vertex state (adjacency,
workspace, ``active``) is read from Python lists.

Because the search early-terminates on the first cycle, the UNBLOCK cascade
of Algorithm 10 is only ever invoked on the success path where the caller
immediately stops — blocks are per-search state here (the graph changes
between top-down steps), so no work is needed on success.

Correctness care beyond the pseudocode (see DESIGN.md). The block
soundness argument (Thm 5) rests on: a vertex that *can* reach ``s``
within budget is never unstacked, because its frame would have found the
cycle and terminated. The no-2-cycle rule breaks that premise in exactly
one place: a depth-1 frame ``u`` with a reciprocal edge ``u -> s`` has its
closure *skipped* (length 2 < 3), so it can fail and be unstacked even
though ``sd(u, s) = 1`` — which (a) makes the pessimistic certificate for
``u`` itself wrong, and (b) leaves *stale* certificates on every vertex
blocked during ``u``'s subtree (they were computed assuming ``u`` is
unusable). Counterexample caught by our randomized tests:
``3->10->8`` fails with ``block[8]=3`` while ``8->10->3`` exists once
``10`` leaves the stack. Deeper frames cannot skip closures (depth >= 2
closes at length >= 3), so the repair is local: when a depth-1 frame that
skipped its closure fails, set ``block[u] = 1`` and *roll back every
block recorded during its subtree exploration*. ``allow_two_cycles=True``
never skips closures and needs no rollback (the classic theorem applies).

The §VI-D "Modification to Cycle Cover without Constraints" is the
``k=None`` path: blocks degenerate to an INF/0 flag and the hop guards
disappear (Johnson-style blocking, existence-only).
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import partial

from .engine import OpBudget, Workspace

_INF = (2 ** 63 - 1) // 4


def node_necessary(g, s: int, k: int | None, active: Sequence[bool],
                   ws: Workspace, budget: OpBudget, *,
                   allow_two_cycles: bool = False,
                   blocked: bool = True) -> list[int] | None:
    """Return a constrained simple cycle through ``s`` or ``None``.

    ``active`` masks the usable vertices (the reduced graph); ``s`` is
    always usable, which is how both Algorithm 4 (start alive) and
    Algorithm 7 (start re-activated) call it. ``k=None`` runs the
    unconstrained variant (any length >= min_len). ``blocked=False`` turns
    the barriers off (Algorithm 5). The cycle is returned as its vertex
    list from ``s``, without the repeated endpoint. The search reads
    ``active[w]`` once per edge, so callers pass a Python list.
    """
    min_len = 2 if allow_two_cycles else 3
    unconstrained = k is None
    if not unconstrained and k < min_len:
        return None
    kk = _INF if unconstrained else k  # no hop guard fires at _INF
    last = kk - 2  # a frame at this depth runs its children's frames inline
    epoch = ws.new_epoch()
    block = ws.block
    stamp = ws.block_stamp
    in_stack = ws.in_stack
    out = g.out_lists
    spend = budget.spend
    block_log: list[int] = []  # vertices whose block was set, in set order
    path = [s]
    in_stack[s] = True
    try:
        nbrs = out[s]
        spend(len(nbrs))
        # frame per path vertex: [neighbor iterator, len(block_log) when
        # pushed, whether a too-short closure to s was skipped]
        frames = [[iter(nbrs), 0, False]]
        while frames:
            frame = frames[-1]
            depth = len(frames) - 1
            for w in frame[0]:
                if w == s:
                    if depth + 1 > kk:
                        continue
                    if depth + 1 >= min_len:
                        return list(path)
                    frame[2] = True
                    continue
                if not active[w] or in_stack[w] or depth + 1 > kk - 1:
                    continue
                if blocked and stamp[w] == epoch \
                        and depth + 1 + block[w] > kk:
                    continue
                nbrs = out[w]
                spend(len(nbrs))
                if depth == last:
                    # w's frame would sit at depth k - 1, where only the
                    # closing edge w -> s can matter (length k >= min_len,
                    # so no closure is skipped): run it here, not pushed.
                    if s in nbrs:
                        return path + [w]
                    if blocked and (stamp[w] != epoch or block[w] < 2):
                        block[w] = 2  # k - depth + 1 at depth k - 1
                        stamp[w] = epoch
                        block_log.append(w)
                    continue
                in_stack[w] = True
                path.append(w)
                frames.append([iter(nbrs), len(block_log), False])
                break
            else:
                # every neighbor tried: the path's last vertex fails here
                frames.pop()
                u = path.pop()
                in_stack[u] = False
                if not blocked:
                    continue
                _, log_mark, skipped_short_closure = frame
                if skipped_short_closure:
                    # u -> s exists but the 2-cycle closure was disallowed:
                    # u was genuinely able to reach s, so every certificate
                    # recorded while u sat on the stack may be stale.
                    for x in block_log[log_mark:]:
                        stamp[x] = 0
                    del block_log[log_mark:]
                    b_new = 1  # sd(u, s | S) == 1: never prune on it
                elif unconstrained:
                    b_new = _INF
                else:
                    b_new = kk - depth + 1
                prev = block[u] if stamp[u] == epoch else 0
                if b_new > prev:
                    block[u] = b_new
                    stamp[u] = epoch
                    block_log.append(u)
        return None
    finally:
        # restore the workspace whether we found a cycle, failed, or the
        # budget blew mid-search
        for v in path:
            in_stack[v] = False


# FindCycle (Algorithm 5): the same search without blocks
find_cycle = partial(node_necessary, blocked=False)
