"""Distributed cover pipeline end-to-end."""
import numpy as np
import pandas as pd
import pytest

from repro.core.top_down import top_down
from repro.core.verify import check_feasible, check_minimal
from repro.dist.kernels import ALGORITHMS, intra_scc_graph
from repro.dist.pipeline import (distributed_cover, prepare_graph,
                                 run_cover, single_group)
from repro.dist.verify import cover_witnesses
from repro.graph.csr import CSRGraph
from repro.graph.schema import EDGE_SCHEMA, edges_df
from repro.graph.tarjan import tarjan_scc
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
    local kernel cover (same intra-SCC graph and order)."""
    pdf = uniform_digraph(14, 60, reciprocity=0.5, seed=4)
    res_d = distributed_cover(spark, edges_df(spark, pdf), 4, "tdb++")
    g = intra_scc_graph(CSRGraph.from_edges(pdf))
    res_l = top_down(g, 4, technique="tdb++")
    assert res_d.cover_set() == res_l.cover_set()
    assert res_d.ops == res_l.ops


def periphery_heavy(n, m, reciprocity, seed):
    """A random powerlaw core (ids < 1000) with the periphery a trim peels.

    On ids 1000-1999: a 12-vertex in-chain into the core, a 12-vertex
    out-chain out of it, a shortcut from the in-chain to the out-chain, a
    15-vertex in-tree and a 15-vertex out-tree. A 2-cycle on 2000, 2001
    hangs off the end of the out-chain: it is an SCC of its own, but the
    edge that feeds it is not. Everything upstream of the core only
    reaches it and everything downstream is only reached from it, so no
    periphery edge lies in an SCC."""
    core = powerlaw_digraph(n, m, reciprocity=reciprocity, seed=seed)
    hubs = sorted(set(core.src) | set(core.dst))
    in_chain, out_chain = list(range(1000, 1012)), list(range(1020, 1032))
    rows = list(zip(in_chain, in_chain[1:] + [hubs[0]]))
    rows += list(zip([hubs[-1]] + out_chain, out_chain))
    rows.append((in_chain[5], out_chain[5]))
    rows += [(1040 + i, 1040 + (i - 1) // 2) for i in range(1, 15)]
    rows += [(1040, hubs[1]), (hubs[2], 1060)]
    rows += [(1060 + (i - 1) // 2, 1060 + i) for i in range(1, 15)]
    rows += [(out_chain[-1], 2000), (2000, 2001), (2001, 2000)]
    return pd.concat([core, pd.DataFrame(rows, columns=["src", "dst"])],
                     ignore_index=True)


def raw_edges(spark, pdf, partitions=7):
    """``pdf`` as it might arrive: every edge twice, a self-loop on every
    source, not normalized and spread over ``partitions`` partitions."""
    loops = pd.DataFrame({"src": pdf.src, "dst": pdf.src})
    raw = pd.concat([pdf, loops, pdf], ignore_index=True)
    return (spark.createDataFrame(raw[["src", "dst"]], schema=EDGE_SCHEMA)
            .repartition(partitions))


def edge_set(frame):
    return {(int(r.src), int(r.dst)) for r in frame.select("src", "dst")
            .collect()}


BRIDGED_TRIANGLES = pd.DataFrame([(0, 1), (1, 2), (2, 0),
                                  (10, 11), (11, 12), (12, 10),
                                  (2, 10)], columns=["src", "dst"])
MULTI_SCC_INPUTS = {
    "powerlaw": lambda: powerlaw_digraph(80, 180, reciprocity=0.4, seed=1),
    "uniform": lambda: uniform_digraph(50, 120, reciprocity=0.5, seed=0),
    "uniform_sparse": lambda: uniform_digraph(60, 110, reciprocity=0.4,
                                              seed=2),
    "bridged_triangles": lambda: BRIDGED_TRIANGLES,
    # chains and trees that a trim would peel, and a pendant 2-cycle
    "periphery": lambda: periphery_heavy(50, 120, reciprocity=0.5, seed=0),
}


@pytest.mark.parametrize("name", sorted(MULTI_SCC_INPUTS))
def test_cover_and_ops_independent_of_mode(spark, name):
    """The kernels build their graph from the edge set alone and the TDB
    kernels take their degree order on its intra-SCC edges, so how the
    input arrives changes neither the cover nor the op count of any
    algorithm: ``prepare_graph`` on a raw frame (duplicates, self-loops,
    seven partitions) and one group of the normalized edges must agree
    exactly."""
    pdf = MULTI_SCC_INPUTS[name]()
    g = CSRGraph.from_edges(pdf)
    comp = tarjan_scc(g)
    src, dst = g.edge_array().T
    assert len(np.unique(comp[src[comp[src] == comp[dst]]])) >= 2
    comp_edges, _ = prepare_graph(spark, raw_edges(spark, pdf), 4)
    normalized = single_group(edges_df(spark, pdf))
    for algo in ALGORITHMS:
        ref = run_cover(normalized, algo, 4)
        piped = run_cover(comp_edges, algo, 4)
        assert ref.finished and piped.finished
        assert ref.cover_set() == piped.cover_set(), algo
        assert ref.ops == piped.ops, algo


def test_prepare_graph_info(spark):
    # one kernel group holding exactly the normalized input
    pdf = powerlaw_digraph(60, 240, reciprocity=0.3, seed=5)
    comp_edges, info = prepare_graph(spark, raw_edges(spark, pdf), 5)
    assert set(comp_edges.columns) == {"comp", "src", "dst"}
    expected = {(int(s), int(d)) for s, d in zip(pdf.src, pdf.dst) if s != d}
    assert [r.comp for r in comp_edges.select("comp").distinct().collect()
            ] == [0]
    assert edge_set(comp_edges) == expected
    assert info["m_input"] == info["m_partitioned"] == len(expected)
    assert info["n_components"] == 1
    assert info["prep_seconds"] > 0


def test_multi_component_graphs_solved_per_component(spark):
    # two disjoint triangles + noise chain: three weak components, one
    # kernel group, one cover vertex per triangle
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0),
                        (10, 11), (11, 12), (12, 10),
                        (20, 21), (21, 22)], columns=["src", "dst"])
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 3)
    assert info["n_components"] == 1
    res = run_cover(comp_edges, "tdb++", 3)
    cov = res.cover_set()
    assert len(cov & {0, 1, 2}) == 1
    assert len(cov & {10, 11, 12}) == 1
    assert len(cov) == 2
    assert res.extra["n_components"] == 1
    # run_cover still runs one kernel per comp value: the same graph
    # labelled by its weak components gives the same cover in three
    # kernels
    split = edges_df(spark, pdf).selectExpr(
        "CAST(src DIV 10 AS BIGINT) AS comp", "src", "dst")
    per_comp = run_cover(split, "tdb++", 3)
    assert per_comp.cover_set() == cov
    assert per_comp.extra["n_components"] == 3
    # two triangles joined by a one-way bridge: the bridge lies on no
    # cycle but stays in the group
    comp_edges, _ = prepare_graph(
        spark, edges_df(spark, BRIDGED_TRIANGLES), 3)
    assert edge_set(comp_edges) == set(
        zip(BRIDGED_TRIANGLES.src, BRIDGED_TRIANGLES.dst))


def test_worker_keeps_no_zip_finder(spark):
    """On a Spark Python worker, the kernels' first call leaves no zip
    finder for pyspark's per-task ``importlib.invalidate_caches()`` to
    re-read."""
    def probe(batches):
        import importlib
        import sys
        import zipimport

        from repro.dist.kernels import forget_zip_finders
        for _ in batches:
            pass
        forget_zip_finders()
        importlib.invalidate_caches()
        left = sum(isinstance(f, zipimport.zipimporter)
                   for f in sys.path_importer_cache.values())
        yield pd.DataFrame({"left": [left]})

    out = spark.range(1).coalesce(1).mapInPandas(probe, "left BIGINT")
    assert out.collect()[0]["left"] == 0


def test_single_group_wraps_raw(spark):
    pdf = pd.DataFrame([(0, 1), (1, 0)], columns=["src", "dst"])
    sg = single_group(edges_df(spark, pdf)).toPandas()
    assert (sg.comp == 0).all() and len(sg) == 2


def test_empty_graph(spark):
    e = spark.createDataFrame([], EDGE_SCHEMA)
    res = distributed_cover(spark, e, 5, "tdb++")
    assert res.size == 0 and res.finished
    assert res.extra["n_components"] == 0
    assert res.extra["m_input"] == res.extra["m_partitioned"] == 0


def test_huge_ids_keep_their_labels(spark):
    # ids near 2**62 on three offsets: the cover comes back in original
    # labels, with no precision lost on the way through Spark and numpy,
    # and the verifier finds no witness against it
    big = 2 ** 62
    parts = [uniform_digraph(18, 40, reciprocity=0.3, seed=1) + big,
             pd.DataFrame({"src": [0, 1], "dst": [1, 0]}) + big + 10 ** 6,
             pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]}) + big - 7]
    pdf = pd.concat(parts, ignore_index=True)
    e = edges_df(spark, pdf)
    res = distributed_cover(spark, e, 5, "tdb++")
    local = top_down(intra_scc_graph(CSRGraph.from_edges(pdf)), 5,
                     technique="tdb++")
    assert res.cover_set() == local.cover_set()
    assert len(res.cover_set() & {big - 7, big - 6, big - 5}) == 1
    assert res.cover_set() <= set(pdf.src.tolist())
    cover = spark.createDataFrame([(int(v),) for v in res.cover], "v BIGINT")
    assert cover_witnesses(single_group(e), cover, 5).count() == 0
