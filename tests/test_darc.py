"""DARC / DARC-DV (Algorithms 1-3 on the units of the node-split graph)."""
import json

import numpy as np
import pytest

from repro.core.brute import all_simple_cycles, is_cover
from repro.core.darc import _SplitDARC, darc_dv
from repro.core.engine import OpBudget
from repro.core.verify import check_feasible
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph

from tests.test_kernel_reference import (DATA, KINDS, SEEDS, _key,
                                         _reference_graph, darc_outcome)


def local_cover(g, res):
    idx = {int(l): i for i, l in enumerate(g.vertex_ids)}
    return {idx[int(v)] for v in res.cover}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_feasible_on_random(seed, k, allow2):
    g = CSRGraph.from_edges(uniform_digraph(13, 40, reciprocity=0.4,
                                            seed=seed))
    if g.n == 0:
        return
    res = darc_dv(g, k, allow_two_cycles=allow2)
    assert res.finished
    lo = 2 if allow2 else 3
    assert is_cover(all_simple_cycles(g, lo, k), local_cover(g, res))
    ok, wit = check_feasible(g, res.cover, k, allow_two_cycles=allow2)
    assert ok, wit


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_blocked_equals_plain(seed, k):
    """Block pruning must not change the result, only the work. With
    2-cycles disallowed, an edge unit's search whose pinned first hop
    ``u -> w`` has a reciprocal ``w -> u`` runs the depth-1 rollback."""
    g = CSRGraph.from_edges(powerlaw_digraph(14, 50, reciprocity=0.5,
                                             seed=seed))
    if g.n == 0:
        return
    for allow2 in (False, True):
        a = darc_dv(g, k, allow_two_cycles=allow2, blocked=True)
        b = darc_dv(g, k, allow_two_cycles=allow2, blocked=False)
        assert a.cover_set() == b.cover_set(), allow2
        # the whole S/W/P evolution is the same, not just the cover
        assert a.extra == b.extra, allow2
        assert a.ops <= b.ops  # pruning never does more work


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_projected_cover_feasible_before_cleanup(seed, k, allow2):
    """Every constrained cycle holds a unit of S, and an edge unit's head
    lies on each cycle through it, so the projection alone is a cover."""
    g = CSRGraph.from_edges(uniform_digraph(12, 36, reciprocity=0.4,
                                            seed=seed))
    state = _SplitDARC(g, k, OpBudget(), allow2, True)
    state.run()
    lo = 2 if allow2 else 3
    assert is_cover(all_simple_cycles(g, lo, k), set(state.projected()))


@pytest.mark.parametrize("limit", [None, 300])
def test_graph_out_lists_untouched(limit):
    """DARC edits its own copy of the out-lists, also when the budget
    runs out mid-search."""
    g = CSRGraph.from_edges(powerlaw_digraph(40, 200, reciprocity=0.3,
                                             seed=2))
    before = [list(nbrs) for nbrs in g.out_lists]
    res = darc_dv(g, 5, budget=OpBudget(limit))
    assert res.finished == (limit is None)
    assert g.out_lists == before


def test_triangle_single_vertex():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    res = darc_dv(g, 3)
    assert res.size == 1


def test_acyclic_empty():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    assert darc_dv(g, 5).size == 0


def test_two_cycles_not_covered_by_default():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    assert darc_dv(g, 5).size == 0
    assert darc_dv(g, 5, allow_two_cycles=True).size >= 1


def test_k_too_small():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    assert darc_dv(g, 2).size == 0


def test_budget_dnf_flagged():
    g = CSRGraph.from_edges(powerlaw_digraph(40, 200, reciprocity=0.3,
                                             seed=2))
    res = darc_dv(g, 5, budget=OpBudget(100))
    assert not res.finished


def test_figure_eight_covers_both_lobes():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0],
                                      [0, 3], [3, 4], [4, 0]]))
    res = darc_dv(g, 3)
    cov = local_cover(g, res)
    assert is_cover(all_simple_cycles(g, 3, 3), cov)


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_matches_recorded_reference(reference, kind, seed):
    """The plain-DFS DARC-DV reproduces the recorded (blocked) outcome of
    ``kernel_reference.json``: same cover and S/U/projection sizes, at no
    fewer ops."""
    g = _reference_graph(kind, seed)
    for k in (3, 4, 5):
        for allow2 in (False, True):
            rec = reference[_key(kind, seed, k, allow2)]["darc-dv"]
            got = darc_outcome(darc_dv(g, k, allow_two_cycles=allow2,
                                       blocked=False))
            assert got[0] == rec[0] and got[2:] == rec[2:], (k, allow2)
            assert got[1] >= rec[1], (k, allow2)
