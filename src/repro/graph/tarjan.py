"""Iterative Tarjan strongly-connected components over a CSR graph.

Constrained cycles never cross SCC boundaries, so the edges inside one SCC
are the whole cover problem. :func:`scc_edge_mask` is that one graph
reduction; :attr:`repro.graph.csr.CSRGraph.intra_scc_graph` applies it
once per graph, and the TDB kernels and both verifier checks search the
result.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .csr import CSRGraph


def tarjan_scc(g: CSRGraph) -> np.ndarray:
    """Return ``comp`` where ``comp[v]`` is the component id of ``v``.

    Component ids are dense ``0..c-1`` in reverse topological discovery
    order (ids themselves carry no meaning — tests compare partitions,
    kernels only group by them). The DFS keeps its per-vertex state in
    Python lists, which it reads once per edge; only the returned labels
    are a numpy array.
    """
    n = g.n
    comp = [-1] * n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    n_comp = 0
    out = g.out_lists

    for root in range(n):
        if index[root] != -1:
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
