"""Minimal pruning (Algorithm 7) and the BUR+ composition.

For each cover vertex ``v`` (insertion order), search for a witness cycle
in ``G - R + {v}`` — the graph with every *other* cover vertex removed.
No witness means ``v`` is redundant and is dropped (and stays alive for
all subsequent checks, exactly as Algorithm 7's shrinking ``R`` implies).
Theorem 4: the result is a feasible and minimal cover.
"""
from __future__ import annotations

import time

from ..graph.csr import CSRGraph
from .engine import OpBudget, OpBudgetExceeded, Workspace
from .bottom_up import bottom_up
from .blocks import find_cycle
from .result import CoverResult


def find_minimal_cover(g: CSRGraph, k: int, cover_local: list[int], *,
                       allow_two_cycles: bool = False,
                       budget: OpBudget | None = None,
                       ws: Workspace | None = None) -> list[int]:
    """Prune ``cover_local`` (CSR-local ids) to a minimal cover of ``g``."""
    budget = budget or OpBudget()
    ws = ws or Workspace(g.n)
    alive = [True] * g.n
    for v in cover_local:
        alive[v] = False
    kept: list[int] = []
    for v in cover_local:
        # G - R + (v): v temporarily alive for its own witness search
        alive[v] = True
        cyc = find_cycle(g, v, k, alive, ws, budget,
                         allow_two_cycles=allow_two_cycles)
        if cyc is not None:
            kept.append(v)
            alive[v] = False
        # no witness: v is redundant, dropped and left alive for later
    return kept


def bur_plus(g: CSRGraph, k: int, *, allow_two_cycles: bool = False,
             budget: OpBudget | None = None,
             ws: Workspace | None = None) -> CoverResult:
    """BUR+ = BUR followed by minimal pruning."""
    budget = budget or OpBudget()
    ws = ws or Workspace(g.n)
    t0 = time.perf_counter()
    base = bottom_up(g, k, allow_two_cycles=allow_two_cycles, budget=budget,
                     ws=ws)
    if not base.finished:
        return CoverResult(
            algorithm="BUR+", k=k, cover=base.cover, seconds=base.seconds,
            ops=budget.spent, allow_two_cycles=allow_two_cycles,
            finished=False,
        )
    label_to_local = {int(lbl): i for i, lbl in enumerate(g.vertex_ids)}
    base_local = [label_to_local[int(v)] for v in base.cover]
    finished = True
    try:
        kept = find_minimal_cover(g, k, base_local,
                                  allow_two_cycles=allow_two_cycles,
                                  budget=budget, ws=ws)
    except OpBudgetExceeded:
        kept = base_local
        finished = False
    return CoverResult(
        algorithm="BUR+", k=k, cover=g.to_labels(kept),
        seconds=time.perf_counter() - t0, ops=budget.spent,
        allow_two_cycles=allow_two_cycles, finished=finished,
        extra={"pre_prune_size": base.size},
    )
