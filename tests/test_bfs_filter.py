"""BFS filter (Algorithm 11): sound may-analysis, Fig-4 imprecision, and
the same decisions as a one-way shortest-closed-walk search."""
from dataclasses import replace

import numpy as np
import pytest

import repro.core.top_down as top_down_mod
import repro.core.verify as verify_mod
from repro.core.bfs_filter import bfs_filter
from repro.core.brute import vertex_on_cycle
from repro.core.engine import OpBudget, Workspace
from repro.core.top_down import top_down
from repro.core.verify import check_feasible
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph
from repro.graphgen.registry import DATASETS


def shortest_closed_walk(g, v, active):
    """Oracle: the length of the shortest closed walk through ``v`` whose
    other vertices are active (None if there is none), by one level
    search forward from ``v``."""
    dist = {v: 0}
    level = [v]
    while level:
        nxt = []
        for u in level:
            for w in g.out_lists[u]:
                if w == v:
                    return dist[u] + 1
                if w not in dist and active[w]:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        level = nxt
    return None


def one_way_decision(g, v, k, active):
    walk = shortest_closed_walk(g, v, active)
    return k >= 2 and walk is not None and walk <= k


def small_analog(name, n):
    """The registry analog ``name`` with ``n`` vertices and its average
    degree."""
    spec = DATASETS[name]
    small = replace(spec, n=n, m=max(2 * n, spec.m * n // spec.n))
    return CSRGraph.from_edges(small.generate())


def assert_same_decisions(g, active, ks=range(2, 8)):
    ws = Workspace(g.n)
    for k in ks:
        for v in range(g.n):
            assert bfs_filter(g, v, k, active, ws, OpBudget()) == \
                one_way_decision(g, v, k, active), (v, k)


@pytest.mark.parametrize("seed", range(10))
def test_decisions_equal_one_way_search(seed):
    rng = np.random.default_rng(seed)
    edges = (uniform_digraph(25, 70, reciprocity=0.2, seed=seed)
             if seed % 2 else
             powerlaw_digraph(40, 130, reciprocity=0.3, seed=seed))
    g = CSRGraph.from_edges(edges)
    assert_same_decisions(g, [True] * g.n)
    assert_same_decisions(g, (rng.random(g.n) < 0.6).tolist())


@pytest.mark.parametrize("name", list(DATASETS))
def test_decisions_equal_one_way_search_on_registry_analogs(name):
    g = small_analog(name, 60)
    assert_same_decisions(g, [True] * g.n)


@pytest.mark.parametrize("allow2", [False, True])
@pytest.mark.parametrize("name", ["WKV", "ASC", "GNU", "FLK"])
def test_every_call_from_the_callers_matches_the_one_way_search(
        monkeypatch, name, allow2):
    """TDB++ and the feasibility sweep (on TDB++'s cover and on that cover
    minus one vertex) ask the filter with their live masks; every answer
    equals the oracle's on the mask of that moment."""
    g = small_analog(name, 80)
    calls = []

    def checked(g, v, k, active, ws, budget):
        got = bfs_filter(g, v, k, active, ws, budget)
        assert got == one_way_decision(g, v, k, active), (v, k)
        calls.append(got)
        return got

    monkeypatch.setattr(top_down_mod, "bfs_filter", checked)
    monkeypatch.setattr(verify_mod, "bfs_filter", checked)
    for k in range(2, 8):
        cover = top_down(g, k, technique="tdb++", allow_two_cycles=allow2)
        labels = sorted(cover.cover.tolist())
        assert check_feasible(g, labels, k, allow_two_cycles=allow2)[0]
        check_feasible(g, labels[1:], k, allow_two_cycles=allow2)
    assert True in calls and False in calls


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_never_prunes_cycle_vertices(seed, k):
    g = CSRGraph.from_edges(uniform_digraph(14, 42, reciprocity=0.3,
                                            seed=seed))
    if g.n == 0:
        return
    ws = Workspace(g.n)
    act = np.ones(g.n, dtype=bool)
    for v in range(g.n):
        flagged = bfs_filter(g, v, k, act, ws, OpBudget())
        if vertex_on_cycle(g, v, 3, k):
            assert flagged, f"filter wrongly pruned cycle vertex {v}"
        if not flagged:
            # a pruned vertex must be on no closed walk at all <= k; in
            # particular on no 2..k simple cycle either
            assert not vertex_on_cycle(g, v, 2, k)


def test_figure4_imprecision_is_on_the_safe_side():
    """Closed walk <= k exists but no simple cycle <= k: the filter may
    flag (imprecise) but the exact search then rejects — never the other
    way around. Graph: a->b->c->a is too long with k=3? Build the classic
    case: v on two 2-length lobes giving a length-4 walk, no 4-cycle."""
    # walk 0->1->0->2->... : mutual pairs create walks; with k=4 and only
    # mutual edges there is a closed walk of length 2 and 4 but no simple
    # 3..4 cycle.
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0], [0, 2], [2, 0]]))
    ws = Workspace(g.n)
    assert bfs_filter(g, 0, 4, np.ones(g.n, bool), ws, OpBudget())
    assert not vertex_on_cycle(g, 0, 3, 4)


def test_active_mask_respected():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    ws = Workspace(g.n)
    act = np.ones(g.n, dtype=bool)
    assert bfs_filter(g, 0, 3, act, ws, OpBudget())
    act[1] = False
    assert not bfs_filter(g, 0, 3, act, ws, OpBudget())


def test_k_too_small():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0], [1, 2], [2, 0]]))
    budget = OpBudget()
    for k in (-1, 0, 1):
        for v in range(g.n):
            assert not bfs_filter(g, v, k, [True] * g.n, Workspace(g.n),
                                  budget)
    assert budget.spent == 0


def test_two_closure_flags_at_k2():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0], [1, 2], [2, 0]]))
    ws = Workspace(g.n)
    assert bfs_filter(g, 0, 2, [True] * g.n, ws, OpBudget())
    assert not bfs_filter(g, 2, 2, [True] * g.n, ws, OpBudget())
    assert bfs_filter(g, 2, 3, [True] * g.n, ws, OpBudget())


@pytest.mark.parametrize("seed", range(5))
def test_inactive_neighbours_cut_every_walk(seed):
    """With ``v``'s in- or out-neighbours masked out, no closed walk
    through ``v`` is left (``v`` itself stays a valid endpoint even when
    masked, as for TDB's candidate vertex)."""
    g = CSRGraph.from_edges(uniform_digraph(20, 80, reciprocity=0.3,
                                            seed=seed))
    ws = Workspace(g.n)
    for v in range(g.n):
        for side in (g.out_lists[v], g.in_lists[v]):
            active = [True] * g.n
            active[v] = False
            for w in side:
                active[w] = False
            assert not bfs_filter(g, v, 7, active, ws, OpBudget())
            assert not one_way_decision(g, v, 7, active)
        only_v = [True] * g.n
        only_v[v] = False
        assert bfs_filter(g, v, 7, only_v, ws, OpBudget()) == \
            one_way_decision(g, v, 7, only_v)


def test_closed_walk_just_over_k_not_flagged():
    g = CSRGraph.from_edges(
        np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]))  # 5-cycle
    ws = Workspace(g.n)
    assert not bfs_filter(g, 0, 4, np.ones(g.n, bool), ws, OpBudget())
    assert bfs_filter(g, 0, 5, np.ones(g.n, bool), ws, OpBudget())
