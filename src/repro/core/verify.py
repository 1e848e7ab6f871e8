"""Exact cover verification: feasibility (Thm 1/4) and minimality (Thm 4/7).

These checks are exact (block-based DFS, not the brute enumerator) so they
scale to the benchmark graphs; tests additionally cross-check them against
the brute-force cycle sets on tiny graphs.
"""
from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .engine import OpBudget, Workspace
from .bfs_filter import bfs_filter
from .blocks import node_necessary
from ..graph.tarjan import nontrivial_scc_mask


def _local_cover(g: CSRGraph, cover_labels) -> np.ndarray:
    lookup = {lbl: i for i, lbl in enumerate(g.vertex_ids.tolist())}
    return np.fromiter((lookup[int(v)] for v in cover_labels
                        if int(v) in lookup), dtype=np.int64)


def check_feasible(g: CSRGraph, cover_labels, k: int | None, *,
                   allow_two_cycles: bool = False,
                   budget: OpBudget | None = None) -> tuple[bool, list[int]]:
    """Is ``cover`` a hop-constrained cycle cover of ``g``?

    Returns ``(ok, witness)`` where witness is an uncovered cycle (local
    ids) when infeasible. Strategy: remove the cover, keep only vertices in
    non-trivial SCCs, then sweep — a vertex with no constrained cycle
    through it can itself be removed before checking the next one, so the
    residual graph monotonically shrinks. With a hop bound, each swept
    vertex first asks the BFS filter (Alg 11): a vertex on no closed walk
    of length <= k is dropped without a DFS, as the DFS would have dropped
    it, so ``alive`` and the witness are the same either way. A feasible
    cover's sweep is all failed searches, which is where the filter pays.
    The cover removal and the SCC pass are whole-array steps; the sweep's
    searches read ``alive`` once per edge, so it becomes a list first.
    """
    budget = budget or OpBudget()
    ws = Workspace(g.n)
    alive = np.ones(g.n, dtype=bool)
    alive[_local_cover(g, cover_labels)] = False
    alive &= nontrivial_scc_mask(g, alive,
                                 allow_two_cycles=allow_two_cycles)
    sweep = np.flatnonzero(alive).tolist()
    alive = alive.tolist()
    for v in sweep:
        if k is None or bfs_filter(g, v, k, alive, ws, budget):
            cyc = node_necessary(g, v, k, alive, ws, budget,
                                 allow_two_cycles=allow_two_cycles)
            if cyc is not None:
                return False, cyc
        alive[v] = False  # on no cycle: removing it cannot hide one
    return True, []


def check_minimal(g: CSRGraph, cover_labels, k: int | None, *,
                  allow_two_cycles: bool = False,
                  budget: OpBudget | None = None) -> tuple[bool, list[int]]:
    """Is every cover vertex necessary? Returns (ok, redundant_labels)."""
    budget = budget or OpBudget()
    ws = Workspace(g.n)
    local = _local_cover(g, cover_labels)
    alive = np.ones(g.n, dtype=bool)
    alive[local] = False
    alive = alive.tolist()
    redundant: list[int] = []
    for v in local.tolist():
        alive[v] = True
        cyc = node_necessary(g, v, k, alive, ws, budget,
                             allow_two_cycles=allow_two_cycles)
        if cyc is None:
            redundant.append(int(g.vertex_ids[v]))
        alive[v] = False
    return len(redundant) == 0, redundant
