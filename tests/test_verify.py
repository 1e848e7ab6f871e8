"""Exact feasibility / minimality verifiers (cross-checked vs brute)."""
import numpy as np
import pytest

import repro.core.verify as verify_mod
import repro.graph.csr as csr_mod
from repro.core.blocks import node_necessary
from repro.core.brute import all_simple_cycles, is_cover
from repro.core.engine import OpBudget, Workspace
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
    # 999 and -3 are not in the graph
    assert check_feasible(g, [999, 0, -3], 3) == (True, [])
    assert check_minimal(g, [999, 0, -3], 3) == (True, [])
    empty = CSRGraph.from_edges(np.zeros((0, 2)))
    assert check_feasible(empty, [1], 3) == (True, [])
    assert check_minimal(empty, [1], 3) == (True, [])


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


# Two 3-cycle SCCs {5, 6, 7} and {10, 11, 12}, one edge between them, and
# acyclic tails on both sides: the tails' labels sort before and after the
# SCCs', so local ids in the reduction differ from those in the graph.
TAILED = np.array([[0, 5], [1, 5], [5, 6], [6, 7], [7, 5], [7, 10],
                   [10, 11], [11, 12], [12, 10], [12, 20], [20, 21]])


def test_witness_is_a_cycle_of_the_unreduced_graph():
    g = CSRGraph.from_edges(TAILED)
    assert g.intra_scc_graph.n < g.n
    for cover, cycle in (([], [5, 6, 7]), ([6, 0], [10, 11, 12]),
                         ([21, 5], [10, 11, 12])):
        ok, wit = check_feasible(g, cover, 3)
        assert not ok
        for a, b in zip(wit, wit[1:] + [wit[0]]):
            assert g.has_edge(a, b)
        assert g.to_labels(wit).tolist() == cycle
    assert check_feasible(g, [7, 11], 3) == (True, [])


def test_label_on_no_intra_scc_edge_is_redundant_in_place():
    g = CSRGraph.from_edges(TAILED)
    ok, red = check_minimal(g, [6, 0, 5, 20, 11, 999], 3)
    # 6 and 5 each leave the triangle covered by the other; 0 and 20 lie
    # on no cycle; 11 alone covers its triangle; 999 is not in the graph
    assert not ok and red == [6, 0, 5, 20]


def test_repeated_checks_build_the_reduction_once(monkeypatch):
    calls = []
    real = csr_mod.scc_edge_mask
    monkeypatch.setattr(csr_mod, "scc_edge_mask",
                        lambda g: calls.append(g) or real(g))
    g = CSRGraph.from_edges(TAILED)
    for _ in range(3):
        check_feasible(g, [5], 3)
        check_minimal(g, [5, 10], 3)
    assert len(calls) == 1 and calls[0] is g
    r = g.intra_scc_graph
    check_feasible(r, [5], 3)
    check_minimal(r, [5, 10], 3)
    assert len(calls) == 1  # the reduction is its own reduction


def unreduced_checks(g, cover, k, allow2):
    """Both checks as searches of ``g`` itself, with no reduction and no
    filter: the sweep visits every non-cover vertex in label order."""
    ws = Workspace(g.n)
    lookup = {lbl: i for i, lbl in enumerate(g.vertex_ids.tolist())}
    local = [lookup[lbl] for lbl in cover if lbl in lookup]
    alive = [True] * g.n
    for v in local:
        alive[v] = False
    witness = []
    for v in range(g.n):
        if alive[v]:
            cyc = node_necessary(g, v, k, alive, ws, OpBudget(),
                                 allow_two_cycles=allow2)
            if cyc is not None:
                witness = cyc
                break
            alive[v] = False
    alive = [True] * g.n
    for v in local:
        alive[v] = False
    redundant = []
    for lbl, v in ((lbl, lookup[lbl]) for lbl in cover if lbl in lookup):
        alive[v] = True
        if node_necessary(g, v, k, alive, ws, OpBudget(),
                          allow_two_cycles=allow2) is None:
            redundant.append(lbl)
        alive[v] = False
    return witness, redundant


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("allow2", [False, True])
def test_reduced_checks_equal_unreduced_search(seed, allow2):
    """A sparse graph with many vertices outside every SCC: the verdicts,
    witness and redundant list equal a search of the whole graph."""
    g = CSRGraph.from_edges(uniform_digraph(40, 70, reciprocity=0.3,
                                            seed=seed))
    assert g.intra_scc_graph.n < g.n
    rng = np.random.default_rng(seed)
    covers = [top_down(g, 4, allow_two_cycles=allow2).cover.tolist()]
    covers += [rng.choice(g.vertex_ids, size=rng.integers(0, g.n // 3),
                          replace=False).tolist() for _ in range(4)]
    for cover in covers:
        witness, redundant = unreduced_checks(g, cover, 4, allow2)
        assert check_feasible(g, cover, 4, allow_two_cycles=allow2) == \
            (not witness, witness)
        assert check_minimal(g, cover, 4, allow_two_cycles=allow2) == \
            (not redundant, redundant)
