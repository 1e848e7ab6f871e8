"""Per-component kernels (applyInPandas bodies) and their dispatch."""
import importlib
import sys
import zipfile

import numpy as np
import pandas as pd
import pytest

from repro.core.verify import check_feasible
from repro.dist.kernels import ALGORITHMS, run_algorithm, solve_component
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


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_only_the_bfs_filter_builds_in_lists(algo):
    g = CSRGraph.from_edges(uniform_digraph(15, 50, reciprocity=0.3,
                                            seed=1))
    run_algorithm(g, algo, 4)
    assert ("in_lists" in vars(g)) == (algo == "tdb++")


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


@pytest.fixture
def zip_on_path(tmp_path):
    """A two-module zip on ``sys.path``; ``sys.path`` and ``sys.modules``
    are restored afterwards."""
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zipmod_first.py", "VALUE = 1\n")
        z.writestr("zipmod_second.py", "VALUE = 2\n")
    path, modules = sys.path[:], dict(sys.modules)
    sys.path.insert(0, str(archive))
    yield str(archive)
    sys.path[:] = path
    for name in set(sys.modules) - set(modules):
        del sys.modules[name]
    sys.path_importer_cache.pop(str(archive), None)


def test_solve_component_forgets_zip_finders(zip_on_path):
    assert importlib.import_module("zipmod_first").VALUE == 1
    assert zip_on_path in sys.path_importer_cache
    pdf = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0], "comp": 0})
    want = run_algorithm(CSRGraph.from_edges(pdf[["src", "dst"]]),
                         "tdb++", 3).cover
    out = solve_component(pdf, algorithm="tdb++", k=3)
    assert zip_on_path not in sys.path_importer_cache
    assert out.vertex.dropna().astype(int).tolist() == list(want)
    assert len(want) == 1
    assert importlib.import_module("zipmod_second").VALUE == 2


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


def test_intra_scc_graph_drops_edges_between_sccs():
    edges = [(0, 1), (1, 2), (2, 0), (2, 50), (50, 51), (51, 50)]
    g = CSRGraph.from_edges(np.array(edges))
    r = g.intra_scc_graph
    assert labelled_edges(r) == {(0, 1), (1, 2), (2, 0), (50, 51), (51, 50)}
    assert r.intra_scc_graph is r
    assert g.intra_scc_graph is r  # built once


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


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("allow2", [False, True])
def test_kernel_unchanged_by_sound_reductions(seed, allow2):
    """Trim and the SCC split delete no intra-SCC edge, so running either
    before the kernel leaves its graph, cover and op count unchanged."""
    gen = uniform_digraph if seed % 2 else powerlaw_digraph
    g = CSRGraph.from_edges(gen(50, 120, reciprocity=0.5, seed=seed))

    def kernel(h: CSRGraph):
        pdf = pd.DataFrame(h.vertex_ids[h.edge_array()],
                           columns=["src", "dst"]).assign(comp=0)
        out = {}
        for algo in ("tdb", "tdb+", "tdb++"):
            rows = solve_component(pdf, algorithm=algo, k=4,
                                   allow_two_cycles=allow2)
            stats = rows[rows.vertex.isna()].iloc[0]
            out[algo] = (set(rows.vertex.dropna().astype(int)),
                         int(stats.ops))
        return labelled_edges(h.intra_scc_graph), out

    want = kernel(g)
    assert want[0] and len(want[0]) < g.m
    for reduce in (trim_local, scc_split):
        r = reduce(g)
        assert kernel(r) == want, reduce.__name__
