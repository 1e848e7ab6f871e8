"""DARC (Algorithms 1-3) and its vertex-ization DARC-DV (§III-B).

DARC (Kuhnle et al., KAIS'19) finds an edge set intersecting every
constrained cycle: AUGMENT walks all edges, and for each edge still
outside the solution adds *entire uncovered cycles* through it; PRUNE then
drops edges whose removal keeps the solution feasible.

DARC-DV runs DARC on the implicit line graph ``G'``: every G-edge is a
G'-vertex; ``e(u,v) -> e(v,w)`` is a G'-edge whose identity is the shared
G-vertex ``v``. Length-l simple cycles of G map 1:1 to length-l
edge-sequences of G' whose underlying G-vertices are distinct, so DARC's
"constrained cycles" here are exactly the *G-vertex-simple* cycles — the
problem's cycle set. (Taking G'-simple cycles literally would also charge
DARC for figure-eight G-circuits with repeated vertices, e.g. two mutual
pairs sharing a vertex form a length-4 G'-cycle; that reading inflates
covers ~15x on reciprocated graphs and contradicts the paper's Table III
where DARC-DV's sizes are within a few percent of BUR+'s, so we implement
the vertex-simple reading.) The line graph is never materialized:
G'-adjacency of edge ``x`` is "all edges out of head(x)", one ``range``
of CSR edge ids per G-vertex; the worst-case bound is the paper's
``O(n^k)``.
"""
from __future__ import annotations

import time
from collections import deque

import numpy as np

from ..graph.csr import CSRGraph
from .engine import OpBudget, OpBudgetExceeded
from .result import CoverResult


class _LineGraphDARC:
    """DARC state over the implicit line graph of ``g``.

    The internal cycle searches use the paper's block (barrier) pruning on
    the line graph. This is a pure accelerator, not an algorithm change:
    block pruning only skips branches that provably contain no qualifying
    cycle, so the *first cycle found in DFS order* — and hence the entire
    S/W/P evolution and the final cover — is identical to the plain-DFS
    DARC (asserted against a plain reference in the tests). Without it the
    Python baseline hits its op budget on every power-law graph.
    """

    def __init__(self, g: CSRGraph, k: int, budget: OpBudget,
                 allow_two_cycles: bool, blocked: bool = True):
        self.blocked = blocked
        self.k = k
        self.budget = budget
        self.min_len = 2 if allow_two_cycles else 3
        self.m = g.m
        # G-edge id e (CSR-out order): tail = _tail[e], head = _head[e].
        # The searches read these lists, which are much cheaper per element
        # than numpy scalars; the numpy edge_head serves the projection.
        self.edge_head = g.indices_out
        self._head = g.indices_out.tolist()
        self._tail = np.repeat(np.arange(g.n), g.out_degrees()).tolist()
        # out-edge ids of G vertex v = G'-successors of every edge into v
        ptr = g.indptr_out.tolist()
        self._out = [range(ptr[v], ptr[v + 1]) for v in range(g.n)]
        self.S: set[int] = set()   # chosen G'-edges, encoded x*m + y
        self.W: set[int] = set()
        self.P: deque[int] = deque()
        self.U: list[list[int]] = []          # recorded cycles (G'-edge lists)
        self.h: dict[int, int] = {}           # G'-edge -> index into U
        # per-search blocked-DFS scratch: blocks over G'-vertices
        # (= G-edges), path membership over G vertices
        self._block = [0] * g.m
        self._stamp = [0] * g.m
        self._on_vpath = [False] * g.n
        self._epoch = 0

    # -- cycle search ------------------------------------------------------
    def find_cycle_through_pair(self, x: int, y: int,
                                allow_pair: int | None = None
                                ) -> list[int] | None:
        """One constrained (G-vertex-simple) cycle containing consecutive
        pair ``(x, y)`` that avoids S (except ``allow_pair``), as the
        G'-vertex (edge-id) list ``[y, ..., x]``; length in [min_len, k].

        Blocked DFS over edge ids: ``block[e]`` lower-bounds the remaining
        hops from ``e`` to the closing edge ``x``. Certificates are only
        recorded for *untainted* failures — a frame is tainted when its
        failure depended on the current vertex stack (closure skipped
        because the length was short or the closing vertex was on the
        path, or the frame's own vertex was a revisit) or any descendant
        was; such failures may not persist once the stack changes, so no
        certificate is safe (the paper's Theorem 5 subtlety, handled
        conservatively). ``blocked=False`` disables pruning entirely; the
        found cycle is identical either way (first-in-DFS-order; tests
        assert it).
        """
        k, S, m = self.k, self.S, self.m
        min_len, blocked = self.min_len, self.blocked
        head, out = self._head, self._out
        spend = self.budget.spend
        closing = x * m + y
        if closing in S and closing != allow_pair:
            return None
        if x == y:
            return None  # would need a self-loop in G
        self._epoch += 1
        epoch = self._epoch
        block, stamp, on_v = self._block, self._stamp, self._on_vpath
        v_start = self._tail[y]  # shared vertex of the pair
        path = [y]
        committed = [v_start]
        on_v[v_start] = True
        found: list[int] | None = None
        last = k - 1  # a frame at this length runs its children inline

        def dfs(cur: int, depth: int) -> tuple[bool, bool]:
            # depth = edges on path; returns (found, tainted)
            nonlocal found
            h = head[cur]  # the G vertex this edge lands on
            if on_v[h]:
                return False, True  # vertex revisit: stack-dependent
            on_v[h] = True
            committed.append(h)
            tainted = False
            rng = out[h]
            spend(len(rng))
            base = cur * m
            length = depth + 1
            # With no hop to spare only the closing edge x can matter, so
            # look it up instead of scanning the out-edges (the spend above
            # still counts the whole scan). Only the root frame at k = 2
            # gets here: deeper last-hop frames run inline in the loop.
            if length < k:
                nxts = rng
            elif x in rng:
                nxts = (x,)
            else:
                nxts = ()
            for nxt in nxts:
                pair = base + nxt
                if pair in S and pair != allow_pair:
                    continue
                if nxt == x:
                    if length < min_len:
                        tainted = True
                        continue
                    if length > k:
                        continue
                    found = path + [x]
                    return True, False
                if (blocked and stamp[nxt] == epoch
                        and length + block[nxt] > k):
                    continue
                if length == last:
                    # nxt's frame has no hop to spare: run it here instead
                    # of calling dfs. It lands on head[nxt], pays for its
                    # out-edges and can only close through x; its length
                    # k >= 3 never skips a short closure.
                    h_nxt = head[nxt]
                    if on_v[h_nxt]:
                        tainted = True  # vertex revisit: stack-dependent
                        continue
                    rng_nxt = out[h_nxt]
                    spend(len(rng_nxt))
                    if x in rng_nxt:
                        pair = nxt * m + x
                        if pair not in S or pair == allow_pair:
                            found = path + [nxt, x]
                            return True, False
                    if blocked and (stamp[nxt] != epoch or block[nxt] < 2):
                        block[nxt] = 2  # k - depth + 1 at depth k - 1
                        stamp[nxt] = epoch
                    continue
                path.append(nxt)
                ok, t = dfs(nxt, length)
                if ok:
                    return True, False
                path.pop()
                tainted |= t
            on_v[h] = False
            committed.pop()
            if blocked and not tainted:
                b_new = k - depth + 1
                if stamp[cur] != epoch or b_new > block[cur]:
                    block[cur] = b_new
                    stamp[cur] = epoch
            return False, tainted

        try:
            dfs(y, 1)
        finally:
            for z in committed:
                on_v[z] = False
        return found

    def _pairs_of(self, cycle: list[int]) -> list[int]:
        """All G'-edges of a cycle ``[y, ..., x]`` (incl. the closing x->y)."""
        m = self.m
        ps = [cycle[i] * m + cycle[i + 1] for i in range(len(cycle) - 1)]
        ps.append(cycle[-1] * m + cycle[0])
        return ps

    # -- Algorithm 2 -------------------------------------------------------
    def augment(self, x: int, y: int) -> None:
        e = x * self.m + y
        if e in self.S:
            return
        if e in self.W:
            self.W.remove(e)
            self.S.add(e)
            self.P.append(e)
            return
        while True:
            cyc = self.find_cycle_through_pair(x, y)
            if cyc is None:
                return
            pairs = self._pairs_of(cyc)
            in_w = [p for p in pairs if p in self.W]
            if in_w:
                p = in_w[0]
                self.W.remove(p)
                self.S.add(p)
                self.P.append(p)
            else:
                self.U.append(pairs)
                for p in pairs:
                    if p not in self.S:
                        self.S.add(p)
                        self.P.append(p)
                    self.h[p] = len(self.U) - 1

    # -- Algorithm 3 -------------------------------------------------------
    def prune(self) -> None:
        while self.P:
            e = self.P.popleft()
            if e not in self.S:
                continue
            x, y = divmod(e, self.m)
            # feasible without e iff no constrained cycle through pair e
            # avoids S \ {e}
            if self.find_cycle_through_pair(x, y, allow_pair=e) is None:
                self.S.remove(e)
                self.W.add(e)

    # -- Algorithm 1 -------------------------------------------------------
    def run(self) -> None:
        S, m, head, out = self.S, self.m, self._head, self._out
        spend = self.budget.spend
        for x in range(m):
            base = x * m
            for y in out[head[x]]:
                spend()
                if base + y not in S:
                    self.augment(x, y)
        self.prune()

    def cover_vertices_local(self) -> np.ndarray:
        """Map chosen G'-edges to their shared G-vertices (deduplicated)."""
        if not self.S:
            return np.zeros(0, dtype=np.int64)
        xs = np.fromiter((p // self.m for p in self.S), dtype=np.int64)
        return np.unique(self.edge_head[xs])


def darc_dv(g: CSRGraph, k: int, *, allow_two_cycles: bool = False,
            budget: OpBudget | None = None, blocked: bool = True,
            vertex_prune: bool = True) -> CoverResult:
    """Run DARC-DV on ``g``; returns the vertex cover in original labels.

    ``blocked=False`` disables the block pruning inside the cycle
    searches (plain-DFS reference; must return the identical cover).

    ``vertex_prune``: DARC's PRUNE is minimal at the *G'-edge* level, but
    the projection to shared vertices keeps a vertex whenever *any* of
    its pairs survived — grossly redundant at the vertex level (the
    paper's "the edge set could be converted to the vertex result set"
    necessarily includes this cleanup: without it the projected covers
    approach |V| on dense graphs, contradicting Table III's sizes). The
    cleanup is one Algorithm-7 pass over the projected set; the raw
    projected size is kept in ``extra["projected_size"]``.
    """
    from .minimal import find_minimal_cover  # local import: avoid cycle

    budget = budget or OpBudget()
    t0 = time.perf_counter()
    state = _LineGraphDARC(g, k, budget, allow_two_cycles, blocked=blocked)
    finished = True
    try:
        state.run()
    except OpBudgetExceeded:
        finished = False
    local = state.cover_vertices_local()
    projected = len(local)
    if vertex_prune and finished:
        try:
            local = np.asarray(
                find_minimal_cover(g, k, [int(v) for v in local],
                                   allow_two_cycles=allow_two_cycles,
                                   budget=budget), dtype=np.int64)
        except OpBudgetExceeded:
            finished = False
    return CoverResult(
        algorithm="DARC-DV", k=k, cover=g.to_labels(local),
        seconds=time.perf_counter() - t0, ops=budget.spent,
        allow_two_cycles=allow_two_cycles, finished=finished,
        extra={"edges_in_S": len(state.S), "recorded_cycles": len(state.U),
               "projected_size": projected},
    )
