"""Benchmarks for the distributed phases (Table II stats + the pipeline
the large-tier Table III rows run through), at bench scale (~SF 0.1
equivalent: the WIT analog, the largest small-tier graph)."""
import pytest

from repro.dist.pipeline import distributed_cover, prepare_graph, run_cover
from repro.dist.verify import cover_witnesses
from repro.graph.schema import graph_stats
from repro.synth_data import graph_edges

DATASET = "WIT"


@pytest.fixture(scope="module")
def edges(spark):
    return graph_edges(spark, DATASET).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def comp_edges(spark, edges):
    return prepare_graph(spark, edges, 5)[0]


def test_stats_table2(benchmark, edges):
    st = benchmark.pedantic(lambda: graph_stats(edges), rounds=3,
                            iterations=1, warmup_rounds=1)
    assert st["n"] > 0


def test_run_cover_call(benchmark, comp_edges):
    """One warm TDB++ kernel call on the WIT group: the kernel itself takes
    about 0.012 s, so the wall time is the per-call floor of a Spark task."""
    res = benchmark.pedantic(lambda: run_cover(comp_edges, "tdb++", 5),
                             rounds=3, iterations=1, warmup_rounds=1)
    assert res.finished


def test_verify_phase(benchmark, spark, comp_edges):
    """The distributed verifier on the TDB++ cover: the exact feasibility
    and minimality checks on the pipeline's one kernel group."""
    res = run_cover(comp_edges, "tdb++", 5)
    cover = spark.createDataFrame([(int(v),) for v in res.cover], "v BIGINT")
    out = benchmark.pedantic(
        lambda: cover_witnesses(comp_edges, cover, 5).count(), rounds=2,
        iterations=1, warmup_rounds=1)
    assert out == 0


def test_distributed_cover_end_to_end(benchmark, spark, edges):
    res = benchmark.pedantic(
        lambda: distributed_cover(spark, edges, 5, "tdb++"),
        rounds=2, iterations=1, warmup_rounds=1)
    assert res.finished
    benchmark.extra_info["cover_size"] = res.size
