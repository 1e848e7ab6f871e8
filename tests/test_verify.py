"""Exact feasibility / minimality verifiers (cross-checked vs brute)."""
import numpy as np
import pytest

import repro.core.verify as verify_mod
from repro.core.brute import all_simple_cycles, is_cover
from repro.core.top_down import top_down
from repro.core.verify import check_feasible, check_minimal
from repro.graph.csr import CSRGraph
from repro.graphgen.models import uniform_digraph


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_agrees_with_brute_on_random_covers(seed, k):
    g = CSRGraph.from_edges(uniform_digraph(12, 36, reciprocity=0.4,
                                            seed=seed))
    if g.n == 0:
        return
    cycles = all_simple_cycles(g, 3, k)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        cov_local = set(rng.choice(g.n, size=rng.integers(0, g.n // 2 + 1),
                                   replace=False).tolist())
        labels = [int(g.vertex_ids[v]) for v in cov_local]
        ok, _ = check_feasible(g, labels, k)
        assert ok == is_cover(cycles, cov_local)


def test_detects_missing_vertex():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    ok, wit = check_feasible(g, [], 3)
    assert not ok and len(wit) == 3


def test_witness_is_a_real_cycle():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0], [2, 3],
                                      [3, 4], [4, 2]]))
    ok, wit = check_feasible(g, [0], 3)
    assert not ok
    for a, b in zip(wit, wit[1:] + [wit[0]]):
        assert g.has_edge(a, b)


def test_minimal_detects_redundancy():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    ok, red = check_minimal(g, [0, 1], 3)
    assert not ok and len(red) >= 1


def test_minimal_accepts_tdb_cover():
    g = CSRGraph.from_edges(uniform_digraph(20, 70, reciprocity=0.3,
                                            seed=3))
    res = top_down(g, 5)
    assert check_minimal(g, res.cover, 5)[0]


def test_empty_cover_on_acyclic_graph_ok():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    assert check_feasible(g, [], 5)[0]
    assert check_minimal(g, [], 5)[0]


def test_cover_labels_absent_from_graph_ignored():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    ok, _ = check_feasible(g, [0, 999], 3)  # 999 not in the graph
    assert ok


@pytest.mark.parametrize("allow2", [False, True])
def test_two_cycle_mode(allow2):
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    ok, _ = check_feasible(g, [], 5, allow_two_cycles=allow2)
    assert ok != allow2  # empty cover fine iff 2-cycles are not counted


def test_unconstrained_check_never_calls_the_filter(monkeypatch):
    def no_filter(*args):
        raise AssertionError("k=None needs no hop-bounded filter")

    monkeypatch.setattr(verify_mod, "bfs_filter", no_filter)
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 3], [3, 4],
                                      [4, 5], [5, 0], [2, 6], [6, 2]]))
    assert not check_feasible(g, [], None)[0]  # the 6-cycle has no bound
    assert check_feasible(g, [0], None)[0]
    res = top_down(g, None, technique="tdb++")
    assert check_feasible(g, res.cover, None)[0]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("allow2", [False, True])
def test_filtered_sweep_keeps_verdict_and_witness(monkeypatch, seed, allow2):
    """With the filter answering True everywhere the sweep runs a DFS on
    every vertex, as it did before the filter: verdicts and witnesses
    must not move."""
    g = CSRGraph.from_edges(uniform_digraph(30, 100, reciprocity=0.3,
                                            seed=seed))
    rng = np.random.default_rng(seed)
    covers = [top_down(g, 4, allow_two_cycles=allow2).cover.tolist()]
    covers += [rng.choice(g.vertex_ids, size=rng.integers(0, g.n // 3),
                          replace=False).tolist() for _ in range(4)]
    with_filter = [check_feasible(g, c, 4, allow_two_cycles=allow2)
                   for c in covers]
    monkeypatch.setattr(verify_mod, "bfs_filter", lambda *a: True)
    assert with_filter == [check_feasible(g, c, 4, allow_two_cycles=allow2)
                           for c in covers]
    assert with_filter[0] == (True, [])
