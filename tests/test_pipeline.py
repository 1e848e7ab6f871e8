"""Distributed cover pipeline end-to-end."""
import numpy as np
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


def test_prepare_graph_info(spark):
    pdf = powerlaw_digraph(60, 240, reciprocity=0.3, seed=5)
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 5)
    assert set(comp_edges.columns) == {"comp", "src", "dst"}
    assert info["m_partitioned"] <= info["m_trimmed"] <= info["m_input"]
    assert info["n_components"] >= 1
    assert info["prep_seconds"] > 0


def test_multi_component_graphs_solved_per_component(spark):
    import pandas as pd
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
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0),
                        (10, 11), (11, 12), (12, 10),
                        (2, 10)], columns=["src", "dst"])
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 3)
    assert info["n_components"] == 2
    kept = {(r.src, r.dst) for r in comp_edges.collect()}
    assert (2, 10) not in kept
    assert len(kept) == 6


def test_single_group_wraps_raw(spark):
    import pandas as pd
    pdf = pd.DataFrame([(0, 1), (1, 0)], columns=["src", "dst"])
    sg = single_group(edges_df(spark, pdf)).toPandas()
    assert (sg.comp == 0).all() and len(sg) == 2


def test_empty_graph(spark):
    e = spark.createDataFrame([], "src BIGINT, dst BIGINT")
    res = distributed_cover(spark, e, 5, "tdb++")
    assert res.size == 0 and res.finished
