"""CSRGraph construction and accessors."""
import numpy as np
import pandas as pd
import pytest

from repro.graph.csr import CSRGraph


@pytest.fixture
def tri():
    # triangle 1->2->3->1 plus a dangling edge 3->9
    return CSRGraph.from_edges(np.array([[1, 2], [2, 3], [3, 1], [3, 9]]))


def test_basic_shape(tri):
    assert tri.n == 4 and tri.m == 4
    assert list(tri.vertex_ids) == [1, 2, 3, 9]


def test_out_neighbors_sorted(tri):
    three = int(np.searchsorted(tri.vertex_ids, 3))
    nbrs = tri.to_labels(tri.out_neighbors(three))
    assert sorted(nbrs.tolist()) == [1, 9]
    assert list(tri.out_neighbors(three)) == sorted(tri.out_neighbors(three))


def test_in_degrees_and_out_lists(tri):
    heads = tri.edge_array()[:, 1]
    assert tri.in_degrees().tolist() == np.bincount(heads, minlength=tri.n
                                                    ).tolist()
    for v in range(tri.n):
        lo, hi = tri.indptr_out[v], tri.indptr_out[v + 1]
        assert tri.out_neighbors(v) == tri.indices_out[lo:hi].tolist()


@pytest.mark.parametrize("seed", range(4))
def test_in_lists_are_the_sorted_transpose(seed):
    rng = np.random.default_rng(seed)
    g = CSRGraph.from_edges(rng.integers(0, 30, size=(120, 2)))
    want = [[] for _ in range(g.n)]
    for u, w in g.edge_array().tolist():
        want[w].append(u)
    assert g.in_lists == [sorted(srcs) for srcs in want]
    assert [len(srcs) for srcs in g.in_lists] == g.in_degrees().tolist()


def test_in_lists_built_once_and_only_on_use(tri):
    assert "in_lists" not in vars(tri)
    first = tri.in_lists
    assert tri.in_lists is first
    assert vars(tri)["in_lists"] is first


@pytest.mark.parametrize("seed", range(6))
def test_edge_subgraph_equals_from_edges_on_the_kept_edges(seed):
    rng = np.random.default_rng(seed)
    g = CSRGraph.from_edges(rng.integers(0, 40, size=(160, 2)) * 3 + 5)
    keep = rng.random(g.m) < (0.5 if seed else 0.0)
    sub = g.edge_subgraph(keep)
    want = CSRGraph.from_edges(g.vertex_ids[g.edge_array()[keep]])
    assert (sub.n, sub.m) == (want.n, want.m)
    for field in ("indptr_out", "indices_out", "vertex_ids"):
        assert getattr(sub, field).tolist() == getattr(want, field).tolist()
    assert sub.out_lists == want.out_lists
    assert sub.in_lists == want.in_lists


def test_degrees(tri):
    assert tri.out_degrees().sum() == tri.m
    assert tri.in_degrees().sum() == tri.m
    assert (tri.total_degrees() == tri.out_degrees() + tri.in_degrees()).all()


def test_has_edge(tri):
    idx = {int(l): i for i, l in enumerate(tri.vertex_ids)}
    assert tri.has_edge(idx[1], idx[2])
    assert not tri.has_edge(idx[2], idx[1])


def test_self_loops_dropped():
    g = CSRGraph.from_edges(np.array([[1, 1], [1, 2], [2, 1]]))
    assert g.m == 2


def test_duplicates_dropped():
    g = CSRGraph.from_edges(np.array([[1, 2], [1, 2], [1, 2], [2, 3]]))
    assert g.m == 2


def test_empty_graph():
    g = CSRGraph.from_edges(np.zeros((0, 2)))
    assert g.n == 0 and g.m == 0


def test_all_self_loops_yields_empty():
    g = CSRGraph.from_edges(np.array([[1, 1], [2, 2]]))
    assert g.m == 0


def test_from_pandas():
    g = CSRGraph.from_edges(pd.DataFrame({"src": [5, 7], "dst": [7, 5]}))
    assert g.n == 2 and g.m == 2


def test_edge_array_roundtrip(tri):
    ea = tri.edge_array()
    lbl = np.column_stack([tri.vertex_ids[ea[:, 0]], tri.vertex_ids[ea[:, 1]]])
    assert {tuple(r) for r in lbl} == {(1, 2), (2, 3), (3, 1), (3, 9)}


def test_to_labels(tri):
    assert tri.to_labels([0, 3]).tolist() == [1, 9]


def test_labels_nonconsecutive():
    g = CSRGraph.from_edges(np.array([[100, 50], [50, 100]]))
    assert set(g.vertex_ids.tolist()) == {50, 100}
    assert g.m == 2
