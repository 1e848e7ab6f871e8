"""Block-based node-necessary (Algorithms 9/10) — soundness is the whole
game here, so this file leans hard on randomized and property tests."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import find_cycle, node_necessary
from repro.core.brute import vertex_on_cycle
from repro.core.engine import OpBudget, Workspace
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def check_cycle_valid(g, cyc, s, k, min_len):
    assert cyc[0] == s
    assert min_len <= len(cyc)
    if k is not None:
        assert len(cyc) <= k
    assert len(set(cyc)) == len(cyc)
    for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
        assert g.has_edge(a, b)


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("allow2", [False, True])
def test_matches_brute_full_graph(seed, k, allow2):
    g = CSRGraph.from_edges(
        uniform_digraph(13, 40, reciprocity=0.5, seed=seed))
    if g.n == 0:
        return
    ws = Workspace(g.n)
    act = np.ones(g.n, dtype=bool)
    lo = 2 if allow2 else 3
    for v in range(g.n):
        cyc = node_necessary(g, v, k, act, ws, OpBudget(),
                             allow_two_cycles=allow2)
        assert (cyc is not None) == vertex_on_cycle(g, v, lo, k), \
            f"v={v} k={k} allow2={allow2}"
        if cyc is not None:
            check_cycle_valid(g, cyc, v, k, lo)
        assert not any(ws.in_stack)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [4, 5])
def test_matches_plain_dfs_under_mask(seed, k):
    g = CSRGraph.from_edges(powerlaw_digraph(16, 60, reciprocity=0.4,
                                             seed=seed))
    if g.n == 0:
        return
    rng = np.random.default_rng(seed)
    act = rng.random(g.n) < 0.7
    ws = Workspace(g.n)
    for v in range(g.n):
        b_ops, p_ops = OpBudget(), OpBudget()
        blocked = node_necessary(g, v, k, act, ws, b_ops)
        plain = find_cycle(g, v, k, act, ws, p_ops)
        # blocks only cut cycle-free subtrees: same first cycle, less work
        assert blocked == plain
        assert b_ops.spent <= p_ops.spent


def test_regression_stale_block_after_skipped_two_cycle():
    """The counterexample from DESIGN.md: the naive certificate
    block[8]=3 (set under stack [3,10,8]) would hide cycle 3->11->8->10->3
    because 10's 2-cycle closure to 3 was skipped. The rollback must keep
    the cycle findable."""
    edges = [[12, 8], [8, 0], [8, 9], [11, 6], [7, 1], [10, 3], [10, 7],
             [2, 9], [0, 6], [3, 7], [3, 11], [11, 8], [11, 4], [0, 8],
             [6, 7], [10, 1], [1, 0], [10, 8], [1, 5], [10, 4], [3, 2],
             [4, 1], [3, 4], [9, 10], [3, 5], [12, 4], [5, 7], [6, 12],
             [6, 5], [7, 5], [12, 5], [9, 8], [7, 6], [3, 10], [10, 9],
             [0, 1], [1, 7], [5, 3], [8, 12], [8, 10]]
    g = CSRGraph.from_edges(np.array(edges))
    idx = {int(l): i for i, l in enumerate(g.vertex_ids)}
    act = np.ones(g.n, dtype=bool)
    for dead in (0, 5, 9):
        act[idx[dead]] = False
    cyc = node_necessary(g, idx[3], 4, act, Workspace(g.n), OpBudget())
    assert cyc is not None
    check_cycle_valid(g, cyc, idx[3], 4, 3)


def test_minimal_two_cycle_skip_case():
    # s->u, u->s, s->b, b->u: 3-cycle s->b->u->s must be found even after
    # u's depth-1 frame fails with a skipped 2-cycle closure.
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0], [0, 2], [2, 1]]))
    # force neighbor order: vertex ids make 1 scanned before 2 from 0
    cyc = node_necessary(g, 0, 3, np.ones(g.n, bool), Workspace(g.n),
                         OpBudget())
    assert cyc is not None and len(cyc) == 3


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("allow2", [False, True])
def test_unconstrained_matches_brute(seed, allow2):
    g = CSRGraph.from_edges(uniform_digraph(10, 28, reciprocity=0.5,
                                            seed=seed))
    if g.n == 0:
        return
    ws = Workspace(g.n)
    act = np.ones(g.n, dtype=bool)
    lo = 2 if allow2 else 3
    for v in range(g.n):
        cyc = node_necessary(g, v, None, act, ws, OpBudget(),
                             allow_two_cycles=allow2)
        assert (cyc is not None) == vertex_on_cycle(g, v, lo, g.n)
        if cyc is not None:
            check_cycle_valid(g, cyc, v, None, lo)


def test_unconstrained_long_ring_no_recursion_limit():
    # a 3,000-vertex ring with one chord: the only cycles through 0 are
    # thousands of hops long, deeper than the default recursion limit
    n = 3000
    ring = [[i, (i + 1) % n] for i in range(n)]
    g = CSRGraph.from_edges(np.array(ring + [[10, 1500]]))
    limit = sys.getrecursionlimit()
    cyc = node_necessary(g, 0, None, np.ones(g.n, bool), Workspace(g.n),
                         OpBudget())
    assert cyc is not None
    check_cycle_valid(g, cyc, 0, None, 3)
    assert sys.getrecursionlimit() == limit


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=1, max_size=40),
       st.integers(3, 6), st.booleans())
def test_property_blocked_equals_brute(edges, k, allow2):
    arr = np.array(edges)
    g = CSRGraph.from_edges(arr)
    if g.n == 0:
        return
    ws = Workspace(g.n)
    act = np.ones(g.n, dtype=bool)
    lo = 2 if allow2 else 3
    for v in range(g.n):
        got = node_necessary(g, v, k, act, ws, OpBudget(),
                             allow_two_cycles=allow2)
        assert (got is not None) == vertex_on_cycle(g, v, lo, k)
