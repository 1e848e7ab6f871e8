"""Tarjan SCC against a reference Kosaraju implementation + known graphs."""
import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.tarjan import tarjan_scc
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def kosaraju(g: CSRGraph):
    """Reference SCC: iterative Kosaraju. Returns partition of local ids."""
    n = g.n
    seen = np.zeros(n, dtype=bool)
    order = []
    for r in range(n):
        if seen[r]:
            continue
        stack = [(r, 0)]
        seen[r] = True
        while stack:
            v, i = stack.pop()
            nbrs = g.out_neighbors(v)
            pushed = False
            while i < len(nbrs):
                w = int(nbrs[i]); i += 1
                if not seen[w]:
                    seen[w] = True
                    stack.append((v, i))
                    stack.append((w, 0))
                    pushed = True
                    break
            if not pushed:
                order.append(v)
    rev = [[] for _ in range(n)]
    for u, w in g.edge_array().tolist():
        rev[w].append(u)
    comp = np.full(n, -1)
    c = 0
    for v in reversed(order):
        if comp[v] != -1:
            continue
        stack = [v]
        comp[v] = c
        while stack:
            u = stack.pop()
            for w in rev[u]:
                if comp[w] == -1:
                    comp[w] = c
                    stack.append(w)
        c += 1
    return comp


def partition(comp):
    out = {}
    for v, c in enumerate(comp):
        if c >= 0:
            out.setdefault(c, set()).add(v)
    return {frozenset(s) for s in out.values()}


def test_single_cycle():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    comp = tarjan_scc(g)
    assert len(set(comp.tolist())) == 1


def test_two_cycles_bridge():
    g = CSRGraph.from_edges(
        np.array([[0, 1], [1, 0], [1, 2], [2, 3], [3, 2]]))
    assert len(partition(tarjan_scc(g))) == 2


def test_dag_all_singletons():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    comp = tarjan_scc(g)
    assert len(set(comp.tolist())) == 3


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("gen", [uniform_digraph, powerlaw_digraph])
def test_random_vs_kosaraju(seed, gen):
    g = CSRGraph.from_edges(gen(20, 50, reciprocity=0.3, seed=seed))
    if g.n == 0:
        return
    assert partition(tarjan_scc(g)) == partition(kosaraju(g))
