"""FindCycle (Algorithm 5) against the brute-force oracle."""
import numpy as np
import pytest

from repro.core.brute import vertex_on_cycle
from repro.core.engine import OpBudget, OpBudgetExceeded, Workspace
from repro.core.blocks import find_cycle
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def check_cycle_valid(g, cyc, s, k, min_len):
    assert cyc[0] == s
    assert min_len <= len(cyc) <= k
    assert len(set(cyc)) == len(cyc)  # simple
    for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
        assert g.has_edge(a, b)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_matches_brute(seed, k, allow2):
    g = CSRGraph.from_edges(
        uniform_digraph(12, 36, reciprocity=0.4, seed=seed))
    if g.n == 0:
        return
    ws = Workspace(g.n)
    act = np.ones(g.n, dtype=bool)
    lo = 2 if allow2 else 3
    for v in range(g.n):
        cyc = find_cycle(g, v, k, act, ws, OpBudget(),
                         allow_two_cycles=allow2)
        assert (cyc is not None) == vertex_on_cycle(g, v, lo, k)
        if cyc is not None:
            check_cycle_valid(g, cyc, v, k, lo)
        assert not any(ws.in_stack)  # workspace restored


@pytest.mark.parametrize("seed", range(6))
def test_active_mask_respected(seed):
    g = CSRGraph.from_edges(powerlaw_digraph(15, 60, reciprocity=0.4,
                                             seed=seed))
    if g.n == 0:
        return
    rng = np.random.default_rng(seed)
    act = rng.random(g.n) < 0.6
    ws = Workspace(g.n)
    for v in range(g.n):
        cyc = find_cycle(g, v, 5, act, ws, OpBudget())
        assert (cyc is not None) == vertex_on_cycle(g, v, 3, 5, act)
        if cyc is not None:
            assert all(act[u] or u == v for u in cyc)


def test_start_usable_even_if_masked():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    act = np.ones(g.n, dtype=bool)
    act[0] = False  # Algorithm 7 semantics: the start is re-activated
    assert find_cycle(g, 0, 3, act, Workspace(g.n), OpBudget()) is not None


def test_two_cycle_excluded_by_default():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    ws = Workspace(g.n)
    assert find_cycle(g, 0, 5, np.ones(g.n, bool), ws, OpBudget()) is None
    assert find_cycle(g, 0, 5, np.ones(g.n, bool), ws, OpBudget(),
                      allow_two_cycles=True) == [0, 1]


def test_budget_abort_restores_workspace():
    g = CSRGraph.from_edges(powerlaw_digraph(30, 150, seed=1))
    ws = Workspace(g.n)
    with pytest.raises(OpBudgetExceeded):
        for v in range(g.n):
            find_cycle(g, v, 5, np.ones(g.n, bool), ws, OpBudget(50))
    assert not any(ws.in_stack)


def test_k_below_min_len():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    assert find_cycle(g, 0, 2, np.ones(g.n, bool), Workspace(g.n),
                      OpBudget()) is None
