"""Iterative Tarjan strongly-connected components over a CSR graph.

Used (a) as the in-kernel decomposition before cover search — constrained
cycles never cross SCC boundaries, so each component is an independent
subproblem — (b) per weak component inside the distributed SCC of
:mod:`repro.graph.scc`, and (c) on the whole graph as the reference for
that SCC's tests.
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
    """
    n = g.n
    comp = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return comp
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    counter = 0
    n_comp = 0
    active = mask if mask is not None else np.ones(n, dtype=bool)

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
            nbrs = g.out_neighbors(v)
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
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
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
                low[parent] = min(low[parent], low[v])
    return comp


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
