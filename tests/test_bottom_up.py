"""BUR (Algorithms 4 & 6): feasibility and heuristic behavior."""
import numpy as np
import pytest

from repro.core.bottom_up import bottom_up, find_cover_node
from repro.core.brute import all_simple_cycles, is_cover
from repro.core.engine import OpBudget
from repro.core.verify import check_feasible
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def local_cover(g, res):
    idx = {int(l): i for i, l in enumerate(g.vertex_ids)}
    return {idx[int(v)] for v in res.cover}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_feasible_on_random(seed, k, allow2):
    g = CSRGraph.from_edges(uniform_digraph(14, 45, reciprocity=0.4,
                                            seed=seed))
    if g.n == 0:
        return
    res = bottom_up(g, k, allow_two_cycles=allow2)
    assert res.finished
    lo = 2 if allow2 else 3
    assert is_cover(all_simple_cycles(g, lo, k), local_cover(g, res))
    ok, wit = check_feasible(g, res.cover, k, allow_two_cycles=allow2)
    assert ok, wit


def test_find_cover_node_prefers_hit_times():
    hits = [0, 5, 2, 5]
    assert find_cover_node([0, 2, 1], hits) == 1
    # ties: first max wins (the paper initializes with the first vertex)
    assert find_cover_node([1, 3], hits) == 1
    assert find_cover_node([3, 1], hits) == 3


def test_motivation_example_center_selected():
    """Figure 3 flavor: a center vertex on many triangles accumulates hit
    times and ends up in the cover."""
    edges = []
    c = 0
    for i in range(1, 6):
        a, b = 10 * i, 10 * i + 1
        edges += [(c, a), (a, b), (b, c)]
    g = CSRGraph.from_edges(np.array(edges))
    res = bottom_up(g, 5)
    assert 0 in res.cover_set()  # center covers all triangles


def test_acyclic_graph_empty_cover():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    res = bottom_up(g, 5)
    assert res.size == 0


def test_deterministic():
    g = CSRGraph.from_edges(powerlaw_digraph(30, 120, seed=3))
    a = bottom_up(g, 4).cover.tolist()
    b = bottom_up(g, 4).cover.tolist()
    assert a == b


def test_budget_dnf_flagged():
    g = CSRGraph.from_edges(powerlaw_digraph(40, 200, seed=2))
    res = bottom_up(g, 5, budget=OpBudget(100))
    assert not res.finished


def test_result_metadata():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    res = bottom_up(g, 3)
    assert res.algorithm == "BUR"
    assert res.k == 3
    assert res.ops > 0
    assert res.seconds >= 0
