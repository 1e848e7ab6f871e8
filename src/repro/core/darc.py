"""DARC (Algorithms 1-3) and its vertex-ization DARC-DV (§III-B).

DARC (Kuhnle et al., KAIS'19) finds an edge set intersecting every
constrained cycle: AUGMENT walks all edges, and for each edge still
outside the solution adds *entire uncovered cycles* through it; PRUNE then
drops edges whose removal keeps the solution feasible.

DARC-DV runs DARC on the node-split graph ``H`` (Ford & Fulkerson, 1962):
each G-vertex ``v`` becomes the edge ``v_in -> v_out`` (the *vertex unit*
``v``) and each G-edge the edge ``u_out -> w_in`` (the *edge unit*
``(u, w)``). The simple cycles of ``H`` are the vertex-simple cycles of G
at twice the length, so a constrained cycle is hit when S holds one of its
vertices or edges. ``H`` is never built: every search is the block DFS
:func:`~repro.core.blocks.node_necessary` on G, with the vertex units in S
masked inactive and the edge units in S deleted from a private copy of G's
out-lists, kept sorted so the DFS order is G's. Blocks only skip subtrees
that hold no cycle, so the first cycle found, and with it the whole S/W/P
evolution, is the plain DFS's (asserted in the tests).
"""
from __future__ import annotations

import time
from bisect import insort
from collections import deque

from ..graph.csr import CSRGraph
from .blocks import node_necessary
from .engine import OpBudget, OpBudgetExceeded, Workspace
from .minimal import find_minimal_cover
from .result import CoverResult


class _SplitDARC:
    """DARC's S/W/P/U state over the units of ``H`` (a vertex unit is its
    vertex id, an edge unit its ``(tail, head)`` pair), and the graph view
    its searches run on: ``out_lists`` is G's minus the edge units in S."""

    def __init__(self, g: CSRGraph, k: int, budget: OpBudget,
                 allow_two_cycles: bool, blocked: bool):
        self.g_out = g.out_lists
        self.out_lists = [list(nbrs) for nbrs in g.out_lists]
        self.active = [True] * g.n  # False on the vertex units in S
        self.budget = budget
        ws = Workspace(g.n)
        self.search = lambda s: node_necessary(
            self, s, k, self.active, ws, budget,
            allow_two_cycles=allow_two_cycles, blocked=blocked)
        self.S: set = set()
        self.W: set = set()
        self.P: deque = deque()
        self.U: list[list] = []  # recorded cycles, as unit lists

    def _add(self, unit) -> None:
        self.S.add(unit)
        self.P.append(unit)
        if isinstance(unit, tuple):
            self.out_lists[unit[0]].remove(unit[1])
        else:
            self.active[unit] = False

    def _drop(self, unit) -> None:
        self.S.remove(unit)
        self.W.add(unit)
        if isinstance(unit, tuple):
            insort(self.out_lists[unit[0]], unit[1])
        else:
            self.active[unit] = True

    def find_cycle(self, unit) -> list[int] | None:
        """First constrained cycle in DFS order through ``unit`` avoiding
        ``S`` other than ``unit`` itself, as a G-vertex list."""
        if not isinstance(unit, tuple):
            return self.search(unit)
        u, w = unit
        if not self.active[u]:
            return None  # every cycle through (u, w) passes u
        # pin u's first hop to w for this one search
        kept, self.out_lists[u] = self.out_lists[u], [w]
        try:
            return self.search(u)
        finally:
            self.out_lists[u] = kept

    # -- Algorithm 2 -------------------------------------------------------
    def augment(self, e) -> None:
        if e in self.S:
            return
        if e in self.W:
            self.W.remove(e)
            self._add(e)
            return
        while e not in self.S:
            cyc = self.find_cycle(e)
            if cyc is None:
                return
            # its units in order: v0, (v0, v1), v1, ..., (v_last, v0)
            units = [x for u, w in zip(cyc, cyc[1:] + cyc[:1])
                     for x in (u, (u, w))]
            in_w = [x for x in units if x in self.W]
            if in_w:
                self.W.remove(in_w[0])
                self._add(in_w[0])
            else:
                # the cycle avoids S, so none of its units is in it yet
                self.U.append(units)
                for x in units:
                    self._add(x)

    # -- Algorithm 3 -------------------------------------------------------
    def prune(self) -> None:
        while self.P:
            e = self.P.popleft()
            # feasible without e iff no constrained cycle through e
            # avoids S \ {e}
            if e in self.S and self.find_cycle(e) is None:
                self._drop(e)

    # -- Algorithm 1 -------------------------------------------------------
    def run(self) -> None:
        """AUGMENT every H-edge in H's CSR order (``v``, then the edges
        out of ``v``), then PRUNE."""
        spend = self.budget.spend
        for v, nbrs in enumerate(self.g_out):
            for unit in [v] + [(v, w) for w in nbrs]:
                spend()
                self.augment(unit)
        self.prune()

    def projected(self) -> list[int]:
        """S projected to G-vertices (an edge unit to its head), sorted."""
        return sorted({x[1] if isinstance(x, tuple) else x for x in self.S})


def darc_dv(g: CSRGraph, k: int, *, allow_two_cycles: bool = False,
            budget: OpBudget | None = None,
            blocked: bool = True) -> CoverResult:
    """Run DARC-DV on ``g``; returns the vertex cover in original labels.

    ``blocked=False`` disables the block pruning inside the cycle
    searches (plain-DFS reference; must return the identical cover).

    The projected cover is feasible but may hold a vertex that the others
    make redundant; one Algorithm-7 pass cleans it (the paper's "the edge
    set could be converted to the vertex result set"). The projected size
    is kept in ``extra["projected_size"]``.
    """
    budget = budget or OpBudget()
    t0 = time.perf_counter()
    state = _SplitDARC(g, k, budget, allow_two_cycles, blocked)
    try:
        state.run()
        local = find_minimal_cover(g, k, state.projected(),
                                   allow_two_cycles=allow_two_cycles,
                                   budget=budget)
        finished = True
    except OpBudgetExceeded:
        local, finished = state.projected(), False
    return CoverResult(
        algorithm="DARC-DV", k=k, cover=g.to_labels(local),
        seconds=time.perf_counter() - t0, ops=budget.spent,
        allow_two_cycles=allow_two_cycles, finished=finished,
        extra={"units_in_S": len(state.S), "recorded_cycles": len(state.U),
               "projected_size": len(state.projected())},
    )
