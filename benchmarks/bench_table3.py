"""Benchmark behind Table III: per-algorithm cover kernels, k = 5.

Runs each algorithm on representative small-tier analogs through the
same kernel entrypoint the table harness uses. ``--benchmark-only``
selects these; the full 16-dataset sweep is ``jobs/table3_cover.py``.
"""
import pytest

from repro.dist.kernels import intra_scc_graph, run_algorithm
from repro.graph.csr import CSRGraph
from repro.graphgen.registry import generate

DATASETS = ["WKV", "GNU", "EU"]
ALGOS = ["tdb++", "bur+", "darc-dv"]


@pytest.fixture(scope="module")
def graphs():
    return {name: CSRGraph.from_edges(generate(name)) for name in DATASETS}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("algo", ALGOS)
def test_cover_kernel(benchmark, graphs, dataset, algo):
    g = graphs[dataset]
    if algo.startswith("tdb"):
        g = intra_scc_graph(g)

    def run():
        return run_algorithm(g, algo, 5, op_budget=2_000_000_000)

    res = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.finished
    benchmark.extra_info["cover_size"] = res.size
    benchmark.extra_info["ops"] = res.ops

