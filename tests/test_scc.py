"""Distributed weak split vs a driver-side union-find: every edge,
labelled by its weak component, and every SCC inside one group."""
import pandas as pd
import pytest

from repro.dist.pipeline import prepare_graph
from repro.graph.csr import CSRGraph
from repro.graph.scc import scc, weak_components
from repro.graph.schema import edges_df
from repro.graph.tarjan import tarjan_scc
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def spark_groups(spark, pdf):
    """Spark's ``scc`` output as a set of ``(comp, src, dst)`` rows."""
    out = scc(spark, edges_df(spark, pdf)).toPandas()
    rows = {(int(c), int(s), int(d))
            for c, s, d in zip(out.comp, out.src, out.dst)}
    assert len(rows) == len(out)
    return rows


def weak_reference(pdf):
    """Driver-side reference: every edge, labelled by the smallest vertex
    id of its weak component (union-find; a root is always its set's
    smallest id)."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = [(int(s), int(d)) for s, d in zip(pdf.src, pdf.dst)]
    for s, d in edges:
        a, b = find(s), find(d)
        parent[max(a, b)] = min(a, b)
    return {(find(s), s, d) for s, d in edges}


def assert_sccs_inside_groups(rows, pdf):
    """Every SCC of the driver-side Tarjan lies inside one group."""
    group = {}
    for c, s, d in rows:
        group[s] = group[d] = c
    g = CSRGraph.from_edges(pdf)
    groups_of = {}
    for v, c in zip(g.vertex_ids.tolist(), tarjan_scc(g).tolist()):
        groups_of.setdefault(c, set()).add(group[v])
    assert all(len(gs) == 1 for gs in groups_of.values())


def two_cycle_chain(links):
    """``links`` 2-cycles {2i, 2i+1}, each fed by the next by one edge.

    One weak component whose smallest id sits at one end, so a label
    passed one hop per round needs about ``2 * links`` rounds to reach the
    other."""
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
    periphery edge lies in an SCC, yet each shares a weak component with
    the core hub it hangs off."""
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
    # the groups are the weak components exactly, and every Tarjan SCC
    # lies inside one of them
    pdf = gen(18, 40, reciprocity=0.3, seed=seed)
    rows = spark_groups(spark, pdf)
    assert rows == weak_reference(pdf)
    assert_sccs_inside_groups(rows, pdf)


def test_periphery_stays_with_its_component(spark):
    # no edge is dropped: the chains, trees and the pendant 2-cycle come
    # out in the group of the core hub they hang off
    pdf = periphery_heavy(18, 40, reciprocity=0.3, seed=0)
    rows = spark_groups(spark, pdf)
    assert rows == weak_reference(pdf)
    assert_sccs_inside_groups(rows, pdf)
    a, b = PENDANT
    comp = {(s, d): c for c, s, d in rows}
    assert comp[a, b] == comp[b, a] == comp[1031, a]


def test_two_cycles_and_bridge(spark):
    # two 2-cycles joined by a one-way bridge: one group, bridge kept
    pdf = pd.DataFrame({"src": [0, 1, 1, 2, 3], "dst": [1, 0, 2, 3, 2]})
    assert spark_groups(spark, pdf) == {(0, 0, 1), (0, 1, 0), (0, 1, 2),
                                        (0, 2, 3), (0, 3, 2)}


def test_dag_all_singletons(spark):
    # every SCC is a singleton, and every edge still comes out
    pdf = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]})
    assert spark_groups(spark, pdf) == {(0, 0, 1), (0, 0, 2), (0, 1, 2)}


def test_exact_on_scc_chain(spark):
    # SCC chain A={10,11} -> B={4,5} -> C={0,1}: one weak component,
    # labelled by its smallest id, holding all three SCCs and both edges
    # between them
    pdf = pd.DataFrame({"src": [10, 11, 4, 5, 0, 1, 11, 5],
                        "dst": [11, 10, 5, 4, 1, 0, 4, 0]})
    rows = spark_groups(spark, pdf)
    assert rows == {(0, s, d) for s, d in zip(pdf.src, pdf.dst)}
    assert_sccs_inside_groups(rows, pdf)


def test_empty(spark):
    e = spark.createDataFrame([], "src BIGINT, dst BIGINT")
    assert scc(spark, e).count() == 0
    _, info = prepare_graph(spark, e, 5)
    assert info["n_components"] == 0
    assert info["m_input"] == info["m_partitioned"] == 0


def test_huge_ids_labelled_by_smallest(spark):
    # ids near 2**62, each input on its own offset: every edge is
    # labelled with the smallest id of its weak component, with no
    # precision lost on the way through Spark and numpy
    big = 2 ** 62
    parts = [uniform_digraph(18, 40, reciprocity=0.3, seed=1) + big,
             two_cycle_chain(5) + big + 10 ** 6,
             pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]}) + big - 7]
    pdf = pd.concat(parts, ignore_index=True)
    rows = spark_groups(spark, pdf)
    assert rows == weak_reference(pdf)
    assert {c for c, _, _ in rows} >= {big + 10 ** 6, big - 7}


def spark_jobs(spark, edges):
    """Spark jobs that labelling and collecting ``edges``' weak components
    runs, counted in a job group (a label loop driven from the driver runs
    its jobs inside the call, before any collect)."""
    sc = spark.sparkContext
    group = f"test-scc-jobs-{id(edges)}"
    sc.setJobGroup(group, "weak_components")
    try:
        weak_components(edges).collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_job_count_independent_of_diameter(spark):
    # the labelling runs in one task: a 1-link and a 60-link chain (about
    # 120 hops end to end) start the same number of Spark jobs
    short, long_ = (edges_df(spark, two_cycle_chain(links))
                    .localCheckpoint(eager=True) for links in (1, 60))
    jobs = spark_jobs(spark, short)
    assert jobs > 0
    assert spark_jobs(spark, long_) == jobs
