"""BUR — the bottom-up hop-constrained cycle cover (Algorithms 4 & 6).

Iterate over all vertices; while a constrained cycle through the current
vertex exists in the reduced graph ``G - R``, bump every cycle vertex's
hit-count ``H`` and put the hottest cycle vertex into the cover (removing
its edges). The hit-count heuristic steers the greedy toward hub vertices
that keep re-appearing in cycles (§V-A's motivation example).
"""
from __future__ import annotations

import time

from ..graph.csr import CSRGraph
from .engine import OpBudget, OpBudgetExceeded, Workspace
from .blocks import find_cycle
from .result import CoverResult


def find_cover_node(cycle: list[int], hits: list[int]) -> int:
    """Algorithm 6: the cycle vertex with maximum hit-count (first wins)."""
    best = cycle[0]
    best_h = hits[best]
    for v in cycle[1:]:
        if hits[v] > best_h:
            best_h = hits[v]
            best = v
    return best


def bottom_up(g: CSRGraph, k: int, *, allow_two_cycles: bool = False,
              budget: OpBudget | None = None) -> CoverResult:
    """Run BUR on ``g``; returns cover in original vertex labels."""
    budget = budget or OpBudget()
    ws = Workspace(g.n)
    hits = [0] * g.n
    alive = [True] * g.n
    cover: list[int] = []
    t0 = time.perf_counter()
    finished = True
    try:
        for v in range(g.n):
            if not alive[v]:
                continue  # v already in R: no cycle can start from it
            while True:
                cyc = find_cycle(g, v, k, alive, ws, budget,
                                 allow_two_cycles=allow_two_cycles)
                if cyc is None:
                    break
                for u in cyc:
                    hits[u] += 1
                cn = find_cover_node(cyc, hits)
                alive[cn] = False
                cover.append(cn)
                if cn == v:
                    break  # v's edges are gone; no cycle through v remains
    except OpBudgetExceeded:
        finished = False
    return CoverResult(
        algorithm="BUR", k=k, cover=g.to_labels(cover),
        seconds=time.perf_counter() - t0, ops=budget.spent,
        allow_two_cycles=allow_two_cycles, finished=finished,
        extra={"hits_nonzero": sum(h > 0 for h in hits)},
    )
