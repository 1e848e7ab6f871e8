"""Exact cover verification: feasibility (Thm 1/4) and minimality (Thm 4/7).

These checks are exact (block-based DFS, not the brute enumerator) so they
scale to the benchmark graphs; tests additionally cross-check them against
the brute-force cycle sets on tiny graphs.

Both search ``g.intra_scc_graph``, the one graph reduction the TDB
kernels search too: every cycle of ``g`` lies inside one SCC, so the
reduction holds every cycle that can refute a cover. It is built once per
graph, however many covers are checked on it.
"""
from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .engine import OpBudget, Workspace
from .bfs_filter import bfs_filter
from .blocks import node_necessary


def _local_ids(g: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """The local id of each label in ``g``, or -1 where ``g`` lacks it.
    ``vertex_ids`` is sorted, so this is a binary search."""
    ids = g.vertex_ids
    if not len(ids):
        return np.full(len(labels), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, labels), len(ids) - 1)
    return np.where(ids[pos] == labels, pos, -1)


def _labels(cover_labels) -> np.ndarray:
    return np.fromiter((int(v) for v in cover_labels), dtype=np.int64)


def check_feasible(g: CSRGraph, cover_labels, k: int | None, *,
                   allow_two_cycles: bool = False,
                   budget: OpBudget | None = None) -> tuple[bool, list[int]]:
    """Is ``cover`` a hop-constrained cycle cover of ``g``?

    Returns ``(ok, witness)`` where witness is an uncovered cycle (local
    ids of ``g``) when infeasible. Strategy: remove the cover from
    ``g.intra_scc_graph``, then sweep its other vertices in label order —
    a vertex with no constrained cycle through it can itself be removed
    before checking the next one, so the residual graph monotonically
    shrinks. With a hop bound, each swept vertex first asks the BFS filter
    (Alg 11): a vertex on no closed walk of length <= k is dropped without
    a DFS, as the DFS would have dropped it, so ``alive`` and the witness
    are the same either way. A feasible cover's sweep is all failed
    searches, which is where the filter pays. The sweep's searches read
    ``alive`` once per edge, so it is a list.
    """
    budget = budget or OpBudget()
    r = g.intra_scc_graph
    ws = Workspace(r.n)
    local = _local_ids(r, _labels(cover_labels))
    alive = np.ones(r.n, dtype=bool)
    alive[local[local >= 0]] = False
    sweep = np.flatnonzero(alive).tolist()
    alive = alive.tolist()
    for v in sweep:
        if k is None or bfs_filter(r, v, k, alive, ws, budget):
            cyc = node_necessary(r, v, k, alive, ws, budget,
                                 allow_two_cycles=allow_two_cycles)
            if cyc is not None:
                return False, _local_ids(g, r.vertex_ids[cyc]).tolist()
        alive[v] = False  # on no cycle: removing it cannot hide one
    return True, []


def check_minimal(g: CSRGraph, cover_labels, k: int | None, *,
                  allow_two_cycles: bool = False,
                  budget: OpBudget | None = None) -> tuple[bool, list[int]]:
    """Is every cover vertex necessary? Returns (ok, redundant_labels).

    Cover labels are taken in their given order. A label of ``g`` outside
    ``g.intra_scc_graph`` lies on no cycle and is redundant; a label
    absent from ``g`` is ignored."""
    budget = budget or OpBudget()
    r = g.intra_scc_graph
    ws = Workspace(r.n)
    labels = _labels(cover_labels)
    local = _local_ids(r, labels)
    in_g = _local_ids(g, labels) >= 0
    alive = np.ones(r.n, dtype=bool)
    alive[local[local >= 0]] = False
    alive = alive.tolist()
    redundant: list[int] = []
    for label, v, present in zip(labels.tolist(), local.tolist(),
                                 in_g.tolist()):
        if v < 0:
            if present:
                redundant.append(label)
            continue
        alive[v] = True
        cyc = node_necessary(r, v, k, alive, ws, budget,
                             allow_two_cycles=allow_two_cycles)
        if cyc is None:
            redundant.append(label)
        alive[v] = False
    return len(redundant) == 0, redundant
