"""Distributed SCC vs Tarjan."""
import pandas as pd
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.scc import scc
from repro.graph.schema import edges_df
from repro.graph.tarjan import tarjan_scc
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def spark_partition(spark, pdf):
    out = scc(spark, edges_df(spark, pdf)).toPandas()
    groups = {}
    for _, r in out.iterrows():
        groups.setdefault(int(r["comp"]), set()).add(int(r["v"]))
    return out, {frozenset(s) for s in groups.values()}


def tarjan_partition(pdf):
    g = CSRGraph.from_edges(pdf)
    groups = {}
    for i, c in enumerate(tarjan_scc(g)):
        groups.setdefault(int(c), set()).add(int(g.vertex_ids[i]))
    return {frozenset(s) for s in groups.values()}


def assert_comp_is_max_id(out):
    """comp is the largest id in the SCC; a singleton's comp is its id."""
    assert out.v.is_unique
    for comp, members in out.groupby("comp").v:
        assert comp == members.max()


def two_cycle_chain(links):
    """``links`` 2-cycles {2i, 2i+1}, each fed by the next by one edge.

    The upstream end holds the largest ids, so a forward max-label
    coloring that peels one SCC layer per round needs ``links`` rounds."""
    rows = []
    for i in range(links):
        a, b = 2 * i, 2 * i + 1
        rows += [(a, b), (b, a)]
        if i + 1 < links:
            rows.append((a + 2, b))
    return pd.DataFrame(rows, columns=["src", "dst"])


def weak_components_and_chain(n, m, reciprocity, seed):
    """Two random graphs, a 30-link 2-cycle chain and a triangle, on
    disjoint ids: several weak components in one input."""
    parts, base = [], 0
    for pdf in (uniform_digraph(n, m, reciprocity=reciprocity, seed=seed),
                two_cycle_chain(30),
                powerlaw_digraph(n, m, reciprocity=reciprocity, seed=seed),
                pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]})):
        parts.append(pdf + base)
        base += int(pdf.to_numpy().max()) + 1
    return pd.concat(parts, ignore_index=True)


@pytest.mark.parametrize(
    "gen, seed",
    [(g, s) for g in (uniform_digraph, powerlaw_digraph) for s in range(5)]
    + [(weak_components_and_chain, 0)])
def test_matches_tarjan(spark, gen, seed):
    pdf = gen(18, 40, reciprocity=0.3, seed=seed)
    out, parts = spark_partition(spark, pdf)
    assert parts == tarjan_partition(pdf)
    assert_comp_is_max_id(out)


def test_two_cycles_and_bridge(spark):
    pdf = pd.DataFrame({"src": [0, 1, 1, 2, 3], "dst": [1, 0, 2, 3, 2]})
    _, parts = spark_partition(spark, pdf)
    assert parts == {frozenset({0, 1}), frozenset({2, 3})}


def test_dag_all_singletons(spark):
    pdf = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]})
    out, parts = spark_partition(spark, pdf)
    assert all(len(p) == 1 for p in parts)
    assert len(parts) == 3
    assert (out.comp == out.v).all()


def test_exact_on_scc_chain(spark):
    # SCC chain A={10,11} -> B={4,5} -> C={0,1} with the global max id
    # upstream: every SCC is found, each labelled by its largest id.
    pdf = pd.DataFrame({"src": [10, 11, 4, 5, 0, 1, 11, 5],
                        "dst": [11, 10, 5, 4, 1, 0, 4, 0]})
    out = scc(spark, edges_df(spark, pdf)).toPandas()
    comp = dict(zip(out.v, out.comp))
    assert comp == {10: 11, 11: 11, 4: 5, 5: 5, 0: 1, 1: 1}


def test_empty(spark):
    e = spark.createDataFrame([], "src BIGINT, dst BIGINT")
    assert scc(spark, e).count() == 0
