"""Vectorized bulk k-hop reachability over a CSR graph.

One numpy-vectorized BFS per root (frontier expansion via CSR gathers, no
per-edge Python) computes, for every root ``v``, the set reachable within
``k-1`` hops. From that:

* ``edge_on_short_walk[x]`` — edge ``x=(u,v)`` lies on a closed walk of
  length <= k  (iff ``dist(v, u) <= k-1``);
* ``vertex_on_short_walk[v]`` — some in-edge of ``v`` is on such a walk.

Both are *may*-analyses with no false negatives for constrained simple
cycles: a simple cycle of length l <= k through an edge/vertex is itself
a closed walk of length l. Deleting everything unflagged therefore
preserves the constrained-cycle set exactly (tests assert it against
brute force). No program code calls it: the TDB kernels keep only the
intra-SCC edges, and a short-walk restrict in front of their search cost
more than it saved. ``repro.dist.kernels`` still re-imports
:func:`restrict_to_short_walk_edges` for ``perfbench/spans.py``, which
wraps it by name.
"""
from __future__ import annotations

import numpy as np

from .csr import CSRGraph


def _reach_within(g: CSRGraph, root: int, hops: int,
                  visited_stamp: np.ndarray, stamp: int) -> np.ndarray:
    """Mark (via ``visited_stamp[v] = stamp``) all v with
    ``1 <= dist(root, v) <= hops``; returns the array of reached vertices.

    Note the root itself is only marked if it is reachable from itself
    (cycle through root) — distance from root, not including hop 0.
    """
    indptr, indices = g.indptr_out, g.indices_out
    frontier = np.asarray([root], dtype=np.int64)
    out_all: list[np.ndarray] = []
    for _ in range(hops):
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            break
        # flattened positions of all frontier out-edges
        offs = np.repeat(starts - np.concatenate(([0], counts.cumsum()[:-1])),
                         counts) + np.arange(total)
        nbrs = indices[offs]
        fresh = nbrs[visited_stamp[nbrs] != stamp]
        if fresh.size == 0:
            break
        visited_stamp[fresh] = stamp
        frontier = np.unique(fresh)
        out_all.append(frontier)
    if not out_all:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(out_all)


def short_walk_masks(g: CSRGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(edge_mask, vertex_mask)`` for closed walks of length <= k.

    ``edge_mask`` is aligned with the CSR-out edge order
    (``g.edge_array()``); ``vertex_mask`` with local vertex ids.
    """
    edge_mask = np.zeros(g.m, dtype=bool)
    vertex_mask = np.zeros(g.n, dtype=bool)
    if k < 2 or g.m == 0:
        return edge_mask, vertex_mask
    visited_stamp = np.full(g.n, -1, dtype=np.int64)
    # edge id ranges grouped by *tail* are the CSR-out slices; we need
    # them grouped by *head* to test dist(head, tail), so build the
    # head-grouped view once: for root v, in-edges (u, v).
    tails = np.repeat(np.arange(g.n), g.out_degrees())  # tail of edge id e
    heads = g.indices_out
    # edge ids grouped by head
    order = np.argsort(heads, kind="stable")
    sorted_heads = heads[order]
    group_starts = np.searchsorted(sorted_heads, np.arange(g.n + 1))
    for v in range(g.n):
        lo, hi = group_starts[v], group_starts[v + 1]
        if lo == hi:
            continue
        _reach_within(g, v, k - 1, visited_stamp, v)
        eids = order[lo:hi]
        hit = visited_stamp[tails[eids]] == v
        if hit.any():
            edge_mask[eids[hit]] = True
            vertex_mask[v] = True
    return edge_mask, vertex_mask


def restrict_to_short_walk_edges(g: CSRGraph, k: int) -> CSRGraph:
    """Sub-CSR containing only edges on closed walks of length <= k."""
    edge_mask, _ = short_walk_masks(g, k)
    if edge_mask.all():
        return g
    edges = g.edge_array()[edge_mask]
    return CSRGraph.from_edges(
        np.column_stack([g.vertex_ids[edges[:, 0]],
                         g.vertex_ids[edges[:, 1]]]))
