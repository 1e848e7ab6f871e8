"""Distributed SCC vs Tarjan: the intra-SCC edges, labelled by component."""
import pandas as pd
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.scc import scc
from repro.graph.schema import edges_df
from repro.graph.tarjan import tarjan_scc
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def spark_scc_edges(spark, pdf):
    """Spark's ``scc`` output as a set of ``(comp, src, dst)`` rows."""
    out = scc(spark, edges_df(spark, pdf)).toPandas()
    rows = {(int(c), int(s), int(d))
            for c, s, d in zip(out.comp, out.src, out.dst)}
    assert len(rows) == len(out)
    return rows


def tarjan_scc_edges(pdf):
    """Driver-side reference: every edge inside one SCC, labelled by the
    largest vertex id of that SCC."""
    g = CSRGraph.from_edges(pdf)
    comp = tarjan_scc(g)
    top = {}
    for i, c in enumerate(comp):
        top[c] = max(top.get(c, -1), int(g.vertex_ids[i]))
    return {(top[comp[u]], int(g.vertex_ids[u]), int(g.vertex_ids[v]))
            for u, v in g.edge_array() if comp[u] == comp[v]}


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


PENDANT = (2000, 2001)


def periphery_heavy(n, m, reciprocity, seed):
    """A random powerlaw core (ids < 1000) with the periphery a trim peels.

    On ids 1000-1999: a 12-vertex in-chain into the core, a 12-vertex
    out-chain out of it, a shortcut from the in-chain to the out-chain, a
    15-vertex in-tree and a 15-vertex out-tree. A 2-cycle on ``PENDANT``
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
    a, b = PENDANT
    rows += [(out_chain[-1], a), (a, b), (b, a)]
    return pd.concat([core, pd.DataFrame(rows, columns=["src", "dst"])],
                     ignore_index=True)


@pytest.mark.parametrize(
    "gen, seed",
    [(g, s) for g in (uniform_digraph, powerlaw_digraph) for s in range(5)]
    + [(weak_components_and_chain, 0)])
def test_matches_tarjan(spark, gen, seed):
    pdf = gen(18, 40, reciprocity=0.3, seed=seed)
    assert spark_scc_edges(spark, pdf) == tarjan_scc_edges(pdf)


def test_periphery_never_emitted(spark):
    # only the core's SCC edges and the pendant 2-cycle come out: no
    # chain, tree or feeding edge that a trim would have peeled
    pdf = periphery_heavy(18, 40, reciprocity=0.3, seed=0)
    core = pdf[(pdf.src < 1000) & (pdf.dst < 1000)]
    a, b = PENDANT
    assert spark_scc_edges(spark, pdf) == (tarjan_scc_edges(core)
                                           | {(b, a, b), (b, b, a)})


def test_two_cycles_and_bridge(spark):
    pdf = pd.DataFrame({"src": [0, 1, 1, 2, 3], "dst": [1, 0, 2, 3, 2]})
    assert spark_scc_edges(spark, pdf) == {(1, 0, 1), (1, 1, 0),
                                           (3, 2, 3), (3, 3, 2)}


def test_dag_all_singletons(spark):
    pdf = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]})
    assert scc(spark, edges_df(spark, pdf)).count() == 0


def test_exact_on_scc_chain(spark):
    # SCC chain A={10,11} -> B={4,5} -> C={0,1} with the global max id
    # upstream: every SCC is found, each labelled by its largest id, and
    # the edges between SCCs are dropped.
    pdf = pd.DataFrame({"src": [10, 11, 4, 5, 0, 1, 11, 5],
                        "dst": [11, 10, 5, 4, 1, 0, 4, 0]})
    assert spark_scc_edges(spark, pdf) == {(11, 10, 11), (11, 11, 10),
                                           (5, 4, 5), (5, 5, 4),
                                           (1, 0, 1), (1, 1, 0)}


def test_empty(spark):
    e = spark.createDataFrame([], "src BIGINT, dst BIGINT")
    assert scc(spark, e).count() == 0
