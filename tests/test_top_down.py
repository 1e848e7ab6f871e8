"""TDB / TDB+ / TDB++ (Algorithm 8 + techniques)."""
import numpy as np
import pytest

from repro.core.engine import OpBudget
from repro.core.top_down import top_down, vertex_order
from repro.core.verify import check_feasible, check_minimal
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
@pytest.mark.parametrize("tech", ["tdb", "tdb+", "tdb++"])
def test_feasible_and_minimal(seed, k, allow2, tech):
    g = CSRGraph.from_edges(uniform_digraph(13, 40, reciprocity=0.4,
                                            seed=seed))
    if g.n == 0:
        return
    res = top_down(g, k, technique=tech, allow_two_cycles=allow2)
    assert res.finished
    ok, wit = check_feasible(g, res.cover, k, allow_two_cycles=allow2)
    assert ok, wit
    okm, red = check_minimal(g, res.cover, k, allow_two_cycles=allow2)
    assert okm, red


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_techniques_identical_covers(seed, k, allow2):
    """§VII-B: the three technique levels return identical result sets."""
    g = CSRGraph.from_edges(powerlaw_digraph(16, 64, reciprocity=0.4,
                                             seed=seed))
    if g.n == 0:
        return
    covers = {t: top_down(g, k, technique=t,
                          allow_two_cycles=allow2).cover_set()
              for t in ("tdb", "tdb+", "tdb++")}
    assert covers["tdb"] == covers["tdb+"] == covers["tdb++"]


@pytest.mark.parametrize("order", ["id", "degree", "degree_desc"])
def test_any_order_is_feasible_and_minimal(order):
    g = CSRGraph.from_edges(uniform_digraph(15, 50, reciprocity=0.3,
                                            seed=7))
    res = top_down(g, 5, order=order)
    assert check_feasible(g, res.cover, 5)[0]
    assert check_minimal(g, res.cover, 5)[0]


def test_vertex_order_variants():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0], [1, 2], [2, 1],
                                      [2, 0], [0, 2]]))
    assert sorted(vertex_order(g, "id").tolist()) == [0, 1, 2]
    degs = g.total_degrees()
    asc = vertex_order(g, "degree")
    assert (np.diff(degs[asc]) >= 0).all()
    with pytest.raises(ValueError):
        vertex_order(g, "nope")


def test_unconstrained_requires_blocks():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        top_down(g, None, technique="tdb")


def test_unknown_technique_rejected():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        top_down(g, 5, technique="bogus")


def test_acyclic_graph_empty_cover():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    for t in ("tdb", "tdb+", "tdb++"):
        assert top_down(g, 5, technique=t).size == 0


def test_minimality_by_construction_on_dense_graph():
    """Theorem 7: every kept vertex has a witness among never-covered
    vertices, hence minimal — even on denser inputs."""
    g = CSRGraph.from_edges(powerlaw_digraph(40, 240, reciprocity=0.3,
                                             seed=9))
    res = top_down(g, 5)
    assert check_minimal(g, res.cover, 5)[0]


def test_budget_dnf_flagged():
    g = CSRGraph.from_edges(powerlaw_digraph(40, 200, seed=2))
    res = top_down(g, 5, budget=OpBudget(50))
    assert not res.finished


def test_algorithm_labels():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    assert top_down(g, 3, technique="tdb").algorithm == "TDB"
    assert top_down(g, 3, technique="tdb+").algorithm == "TDB+"
    assert top_down(g, 3, technique="tdb++").algorithm == "TDB++"
