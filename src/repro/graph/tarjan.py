"""Iterative Tarjan strongly-connected components over a CSR graph.

Constrained cycles never cross SCC boundaries, so the edges inside one SCC
are the whole cover problem. :func:`scc_edge_mask` is that one graph
reduction, which the TDB kernels apply to their weak component
(:func:`repro.dist.kernels.intra_scc_graph`). :func:`tarjan_scc` on the
whole graph is also the reference that the tests hold the distributed
weak split (:mod:`repro.graph.scc`) against.
"""
from __future__ import annotations

import numpy as np

from .csr import CSRGraph


def tarjan_scc(g: CSRGraph, mask: np.ndarray | None = None) -> np.ndarray:
    """Return ``comp`` where ``comp[v]`` is the component id of ``v``.

    ``mask`` (bool, optional) restricts the graph to masked-True vertices;
    masked-out vertices get component id ``-1``. Component ids are dense
    ``0..c-1`` in reverse topological discovery order (ids themselves carry
    no meaning — tests compare partitions, kernels only group by them).
    The DFS keeps its per-vertex state in Python lists, which it reads
    once per edge; only the returned labels are a numpy array.
    """
    n = g.n
    comp = [-1] * n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    n_comp = 0
    active = mask.tolist() if mask is not None else [True] * n
    out = g.out_lists

    for root in range(n):
        if not active[root] or index[root] != -1:
            continue
        # frames: (vertex, iterator position into out-neighbors)
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            nbrs = out[v]
            advanced = False
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if not active[w]:
                    continue
                if index[w] == -1:
                    work.append((v, i))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return np.array(comp, dtype=np.int64)


def scc_edge_mask(g: CSRGraph) -> np.ndarray:
    """A mask over ``g.edge_array()`` that is True for the edges whose ends
    share an SCC. Every other edge lies on no cycle."""
    comp = tarjan_scc(g)
    src, dst = g.edge_array().T
    return comp[src] == comp[dst]


def nontrivial_scc_mask(g: CSRGraph, mask: np.ndarray | None = None,
                        allow_two_cycles: bool = False) -> np.ndarray:
    """Vertices that *might* lie on a constrained cycle.

    A vertex in a singleton SCC (no self-loop — CSR drops those) is on no
    cycle at all. With 2-cycles disallowed, a 2-vertex SCC whose only
    edges are the mutual pair also cannot host a 3+-cycle, but such SCCs
    may still contain 3-cycles when extra vertices exist — size alone
    decides only the singleton case, so we prune exactly that (plus, for
    the allow_two_cycles=False case, SCCs of size 2, which can only carry
    the mutual 2-cycle).
    """
    comp = tarjan_scc(g, mask)
    sizes = np.bincount(comp[comp >= 0], minlength=max(comp.max() + 1, 1)) \
        if (comp >= 0).any() else np.zeros(1, dtype=np.int64)
    min_size = 2 if allow_two_cycles else 3
    ok = np.zeros(g.n, dtype=bool)
    sel = comp >= 0
    ok[sel] = sizes[comp[sel]] >= min_size
    return ok
