"""Benchmarks for the distributed phases (Table II stats + the pipeline
the large-tier Table III rows run through), at bench scale (~SF 0.1
equivalent: the WIT analog, the largest small-tier graph)."""
import pytest

from repro.dist.pipeline import distributed_cover, prepare_graph, run_cover
from repro.dist.verify import cover_witnesses
from repro.graph.schema import graph_stats, normalize_edges
from repro.graph.scc import scc
from repro.synth_data import graph_edges

DATASET = "WIT"


@pytest.fixture(scope="module")
def edges(spark):
    return graph_edges(spark, DATASET).localCheckpoint(eager=True)


def test_stats_table2(benchmark, edges):
    st = benchmark.pedantic(lambda: graph_stats(edges), rounds=3,
                            iterations=1, warmup_rounds=1)
    assert st["n"] > 0


def test_verify_phase(benchmark, spark, edges):
    """The distributed verifier on the TDB++ cover: the exact feasibility
    and minimality checks per component of the pipeline's weak split."""
    comp_edges, _ = prepare_graph(spark, edges, 5)
    res = run_cover(comp_edges, "tdb++", 5)
    cover = spark.createDataFrame([(int(v),) for v in res.cover], "v BIGINT")
    out = benchmark.pedantic(
        lambda: cover_witnesses(comp_edges, cover, 5).count(), rounds=2,
        iterations=1)
    assert out == 0


def test_scc_phase(benchmark, spark, edges):
    """The weak split (``scc``) on the normalized graph, as
    ``prepare_graph`` feeds it."""
    e = normalize_edges(edges).localCheckpoint(eager=True)
    out = benchmark.pedantic(
        lambda: scc(spark, e).count(), rounds=2,
        iterations=1)
    assert out >= 0


def test_distributed_cover_end_to_end(benchmark, spark, edges):
    res = benchmark.pedantic(
        lambda: distributed_cover(spark, edges, 5, "tdb++"),
        rounds=2, iterations=1)
    assert res.finished
    benchmark.extra_info["cover_size"] = res.size
