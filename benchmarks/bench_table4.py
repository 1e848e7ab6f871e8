"""Benchmark behind Table IV: TDB++ with vs without 2-cycles, k = 5."""
import pytest

from repro.dist.kernels import run_algorithm
from repro.graph.csr import CSRGraph
from repro.graphgen.registry import generate

DATASETS = ["WKV", "ASC"]


@pytest.fixture(scope="module")
def graphs():
    return {name: CSRGraph.from_edges(generate(name)).intra_scc_graph
            for name in DATASETS}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("allow2", [False, True],
                         ids=["no_2cycle", "with_2cycle"])
def test_tdbpp_two_cycle_modes(benchmark, graphs, dataset, allow2):
    g = graphs[dataset]

    def run():
        return run_algorithm(g, "tdb++", 5, allow_two_cycles=allow2,
                             op_budget=2_000_000_000)

    res = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.finished
    benchmark.extra_info["cover_size"] = res.size
