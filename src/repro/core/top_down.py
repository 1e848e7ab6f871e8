"""TDB / TDB+ / TDB++ — the top-down cover construction (Algorithm 8).

Start from a full cover (every vertex) and an empty working graph ``G0``.
Visit vertices in a fixed order; for each candidate ``v``, tentatively add
its edges to ``G0`` and ask whether that creates a constrained cycle
through ``v``:

* no cycle  -> ``v`` leaves the cover permanently (its edges stay in G0);
* a cycle   -> ``v`` stays in the cover (its edges are withdrawn).

``G0`` is represented implicitly: an ``accepted`` mask over the original
CSR graph (a vertex's edges are "in G0" iff the vertex was accepted), so
adding/withdrawing edges is O(1). The mask is a Python list, because the
searches read it once per edge.

Techniques (§VI):

* ``tdb``    — plain hop-bounded DFS validation (FindCycle);
* ``tdb+``   — block-based validation (Algorithm 9), O(km) per vertex,
               giving the paper's O(k·m·n) total;
* ``tdb++``  — additionally the BFS filter (Algorithm 11) before the
               exact validation.

All three return *identical* covers for a fixed order (§VII-B: "the result
sets generated by all three methods are identical") — asserted in tests.
Every kept vertex has a witness cycle among vertices that are never put in
the cover afterwards, so the result is minimal by construction (Thm 7).

The vertex order is ascending total degree, ties by local id (hubs are
decided last, hence retained): it yields small covers comparable to BUR+,
matching the paper's Table III relationship. Any order gives a feasible,
minimal cover; the tests check that by relabelling the input.
"""
from __future__ import annotations

import time

import numpy as np

from ..graph.csr import CSRGraph
from .engine import OpBudget, OpBudgetExceeded, Workspace
from .bfs_filter import bfs_filter
from .blocks import node_necessary
from .result import CoverResult

TECHNIQUES = ("tdb", "tdb+", "tdb++")


def vertex_order(g: CSRGraph) -> np.ndarray:
    """Processing order for Algorithm 8's main loop: ascending total
    degree, stable."""
    return np.argsort(g.total_degrees(), kind="stable")


def top_down(g: CSRGraph, k: int | None, *, technique: str = "tdb++",
             allow_two_cycles: bool = False,
             budget: OpBudget | None = None) -> CoverResult:
    """Run the top-down algorithm; returns cover in original labels.

    ``k=None`` runs the unconstrained variant (tdb+/tdb++ only use the
    block technique then; the BFS filter needs a hop bound and is skipped).
    """
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    if k is None and technique == "tdb":
        raise ValueError("the unconstrained variant requires the block "
                         "technique (tdb+ or tdb++): plain DFS does not "
                         "terminate usefully without a hop bound")
    budget = budget or OpBudget()
    ws = Workspace(g.n)
    accepted = [False] * g.n  # vertices whose edges are in G0
    cover: list[int] = []
    t0 = time.perf_counter()
    finished = True
    use_filter = technique == "tdb++" and k is not None
    use_blocks = technique in ("tdb+", "tdb++")
    try:
        for v in vertex_order(g).tolist():
            if use_filter and not bfs_filter(g, v, k, accepted, ws, budget):
                accepted[v] = True  # no closed walk <= k: provably safe
                continue
            cyc = node_necessary(g, v, k, accepted, ws, budget,
                                 allow_two_cycles=allow_two_cycles,
                                 blocked=use_blocks)
            if cyc is None:
                accepted[v] = True
            else:
                cover.append(v)  # edges withdrawn: accepted[v] stays False
    except OpBudgetExceeded:
        finished = False
    name = {"tdb": "TDB", "tdb+": "TDB+", "tdb++": "TDB++"}[technique]
    return CoverResult(
        algorithm=name, k=k, cover=g.to_labels(cover),
        seconds=time.perf_counter() - t0, ops=budget.spent,
        allow_two_cycles=allow_two_cycles, finished=finished,
    )
