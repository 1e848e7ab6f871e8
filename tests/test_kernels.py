"""Per-component kernels (applyInPandas bodies) and their dispatch."""
import numpy as np
import pandas as pd
import pytest

from repro.core.verify import check_feasible
from repro.dist.kernels import (ALGORITHMS, restrict_to_cycle_region,
                                run_algorithm, solve_component)
from repro.graph.bulk_bfs import short_walk_masks
from repro.graph.csr import CSRGraph
from repro.graph.tarjan import tarjan_scc
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_algorithm_dispatch(algo):
    g = CSRGraph.from_edges(uniform_digraph(15, 50, reciprocity=0.3,
                                            seed=1))
    res = run_algorithm(g, algo, 4)
    assert res.finished
    assert check_feasible(g, res.cover, 4)[0]


def test_run_algorithm_unknown():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        run_algorithm(g, "nope", 4)


def test_solve_component_rows():
    pdf = uniform_digraph(15, 50, reciprocity=0.3, seed=2)
    pdf["comp"] = 7
    out = solve_component(pdf, algorithm="tdb++", k=4)
    stats = out[out.vertex.isna()]
    cover = out[out.vertex.notna()]
    assert len(stats) == 1
    assert stats.iloc[0]["comp"] == 7
    assert stats.iloc[0]["finished"]
    assert stats.iloc[0]["ops"] >= 0
    g = CSRGraph.from_edges(pdf[["src", "dst"]])
    assert check_feasible(g, cover.vertex.astype(int).tolist(), 4)[0]


def test_solve_component_budget_dnf():
    pdf = uniform_digraph(30, 150, reciprocity=0.3, seed=3)
    pdf["comp"] = 1
    out = solve_component(pdf, algorithm="bur+", k=5, op_budget=10)
    stats = out[out.vertex.isna()]
    assert not stats.iloc[0]["finished"]


def test_restriction_only_for_tdb_family():
    """Baselines must see the raw graph; the TDB family self-restricts."""
    # one triangle + a long chain that only the restriction would remove
    edges = [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(10, 30)]
    pdf = pd.DataFrame(edges, columns=["src", "dst"])
    pdf["comp"] = 0
    for algo in ("tdb++", "bur+", "darc-dv"):
        out = solve_component(pdf, algorithm=algo, k=3)
        cov = set(out[out.vertex.notna()].vertex.astype(int))
        assert len(cov & {0, 1, 2}) == 1 and len(cov) == 1


def test_restrict_to_cycle_region_drops_dead_weight():
    edges = [(0, 1), (1, 2), (2, 0), (2, 50), (50, 51)]
    g = CSRGraph.from_edges(np.array(edges))
    r = restrict_to_cycle_region(g, False, 3)
    assert set(r.vertex_ids.tolist()) == {0, 1, 2}
    assert r.m == 3


def test_restrict_to_cycle_region_is_a_fixpoint():
    """A short-walk pass that splits an SCC must be followed by another
    SCC pass: the mutual pair 3<->4 survives one round of each (it sits
    in the 5-vertex SCC, and 3->4->3 is a 2-walk) but is on no 3+-cycle of
    length <= 3 once the long edges 2->3 and 4->0 are gone."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 0)]
    g = CSRGraph.from_edges(np.array(edges))
    r = restrict_to_cycle_region(g, False, 3)
    assert set(r.vertex_ids.tolist()) == {0, 1, 2}
    assert r.m == 3


def labelled_edges(g: CSRGraph) -> set[tuple[int, int]]:
    return {(int(u), int(v)) for u, v in g.vertex_ids[g.edge_array()]}


def sub_csr(g: CSRGraph, keep: np.ndarray) -> CSRGraph:
    """The sub-graph of ``g`` on the edges flagged in ``keep`` (CSR
    order)."""
    return CSRGraph.from_edges(g.vertex_ids[g.edge_array()[keep]])


def trim_local(g: CSRGraph) -> CSRGraph:
    """Drop vertices with no in- or no out-edge, to a fixpoint."""
    while g.m:
        ok = (g.in_degrees() > 0) & (g.out_degrees() > 0)
        if ok.all():
            break
        e = g.edge_array()
        g = sub_csr(g, ok[e[:, 0]] & ok[e[:, 1]])
    return g


def scc_split(g: CSRGraph) -> CSRGraph:
    """Keep only the edges inside one strongly-connected component."""
    comp = tarjan_scc(g)
    e = g.edge_array()
    return sub_csr(g, comp[e[:, 0]] == comp[e[:, 1]])


def short_walk_vertices(k):
    """Keep the edges between vertices on a closed walk of length <= k."""
    def reduce(g: CSRGraph) -> CSRGraph:
        _, vmask = short_walk_masks(g, k)
        e = g.edge_array()
        return sub_csr(g, vmask[e[:, 0]] & vmask[e[:, 1]])
    return reduce


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_restrict_is_invariant_under_sound_reductions(seed, k, allow2):
    """The restricted graph is the greatest sub-graph both reductions fix,
    so any reduction that deletes only what lies on no constrained cycle
    may run first without changing it."""
    gen = uniform_digraph if seed % 2 else powerlaw_digraph
    g = CSRGraph.from_edges(gen(50, 120, reciprocity=0.5, seed=seed))
    want = labelled_edges(restrict_to_cycle_region(g, allow2, k))
    for reduce in (trim_local, scc_split, short_walk_vertices(k)):
        r = reduce(g)
        got = labelled_edges(restrict_to_cycle_region(r, allow2, k))
        assert got == want, reduce
