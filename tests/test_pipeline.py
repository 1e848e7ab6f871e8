"""Distributed cover pipeline end-to-end."""
import numpy as np
import pandas as pd
import pytest

from repro.core.top_down import top_down
from repro.core.verify import check_feasible, check_minimal
from repro.dist.pipeline import (distributed_cover, prepare_graph,
                                 run_cover, single_group)
from repro.graph.csr import CSRGraph
from repro.graph.schema import edges_df
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("algo", ["tdb++", "bur+"])
def test_end_to_end_feasible_minimal(spark, seed, algo):
    pdf = uniform_digraph(30, 90, reciprocity=0.3, seed=seed)
    res = distributed_cover(spark, edges_df(spark, pdf), 5, algo)
    assert res.finished
    g = CSRGraph.from_edges(pdf)
    assert check_feasible(g, res.cover, 5)[0]
    if algo == "tdb++":
        assert check_minimal(g, res.cover, 5)[0]


def test_pipeline_matches_local_kernel_on_single_scc(spark):
    """When the whole graph is one SCC, the pipeline cover must equal the
    local kernel cover (same deterministic restriction + order)."""
    from repro.dist.kernels import restrict_to_cycle_region
    pdf = uniform_digraph(14, 60, reciprocity=0.5, seed=4)
    res_d = distributed_cover(spark, edges_df(spark, pdf), 4, "tdb++")
    g = restrict_to_cycle_region(CSRGraph.from_edges(pdf), False, 4)
    res_l = top_down(g, 4, technique="tdb++")
    assert res_d.cover_set() == res_l.cover_set()
    assert res_d.ops == res_l.ops


BRIDGED_TRIANGLES = pd.DataFrame([(0, 1), (1, 2), (2, 0),
                                  (10, 11), (11, 12), (12, 10),
                                  (2, 10)], columns=["src", "dst"])
MULTI_SCC_INPUTS = {
    "powerlaw": lambda: powerlaw_digraph(80, 180, reciprocity=0.4, seed=1),
    "uniform": lambda: uniform_digraph(50, 120, reciprocity=0.5, seed=0),
    "uniform_sparse": lambda: uniform_digraph(60, 110, reciprocity=0.4,
                                              seed=2),
    "bridged_triangles": lambda: BRIDGED_TRIANGLES,
}


@pytest.mark.parametrize("name", sorted(MULTI_SCC_INPUTS))
def test_cover_and_ops_independent_of_mode(spark, name):
    """The TDB kernels restrict to a fixpoint, so the shared Spark phases
    change neither the cover nor the op count: one raw group and the
    per-SCC pipeline must agree exactly."""
    e = edges_df(spark, MULTI_SCC_INPUTS[name]())
    comp_edges, info = prepare_graph(spark, e, 4)
    assert info["n_components"] >= 2
    for algo in ("tdb", "tdb+", "tdb++"):
        raw = run_cover(single_group(e), algo, 4)
        piped = run_cover(comp_edges, algo, 4)
        assert raw.finished and piped.finished
        assert raw.cover_set() == piped.cover_set(), algo
        assert raw.ops == piped.ops, algo


def test_prepare_graph_info(spark):
    pdf = powerlaw_digraph(60, 240, reciprocity=0.3, seed=5)
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 5)
    assert set(comp_edges.columns) == {"comp", "src", "dst"}
    assert info["m_partitioned"] <= info["m_trimmed"] <= info["m_input"]
    assert info["n_components"] >= 1
    assert info["prep_seconds"] > 0


def test_multi_component_graphs_solved_per_component(spark):
    # two disjoint triangles + noise chain
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0),
                        (10, 11), (11, 12), (12, 10),
                        (20, 21), (21, 22)], columns=["src", "dst"])
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 3)
    assert info["n_components"] == 2
    res = run_cover(comp_edges, "tdb++", 3)
    cov = res.cover_set()
    assert len(cov & {0, 1, 2}) == 1
    assert len(cov & {10, 11, 12}) == 1
    assert len(cov) == 2
    assert res.extra["n_components"] == 2
    # two triangles joined by a one-way bridge: one weak component, two
    # SCCs; the bridge lies on no cycle and is cut
    comp_edges, info = prepare_graph(
        spark, edges_df(spark, BRIDGED_TRIANGLES), 3)
    assert info["n_components"] == 2
    kept = {(r.src, r.dst) for r in comp_edges.collect()}
    assert (2, 10) not in kept
    assert len(kept) == 6


def test_single_group_wraps_raw(spark):
    pdf = pd.DataFrame([(0, 1), (1, 0)], columns=["src", "dst"])
    sg = single_group(edges_df(spark, pdf)).toPandas()
    assert (sg.comp == 0).all() and len(sg) == 2


def test_empty_graph(spark):
    e = spark.createDataFrame([], "src BIGINT, dst BIGINT")
    res = distributed_cover(spark, e, 5, "tdb++")
    assert res.size == 0 and res.finished
