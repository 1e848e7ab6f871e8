"""Benchmark behind the technique-speedup table (paper Fig. 10 as data):
TDB vs TDB+ vs TDB++ on the WKV analog across k."""
import pytest

from repro.dist.kernels import run_algorithm
from repro.graph.csr import CSRGraph
from repro.graphgen.registry import generate


@pytest.fixture(scope="module")
def wkv():
    return CSRGraph.from_edges(generate("WKV")).intra_scc_graph


@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("tech", ["tdb", "tdb+", "tdb++"])
def test_technique(benchmark, wkv, tech, k):
    def run():
        return run_algorithm(wkv, tech, k, op_budget=4_000_000_000)

    res = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.finished
    benchmark.extra_info["cover_size"] = res.size
    benchmark.extra_info["ops"] = res.ops
