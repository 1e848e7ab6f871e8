"""Distributed cover verification."""
import pandas as pd
import pytest

from repro.core.verify import check_feasible, check_minimal
from repro.dist.kernels import run_algorithm
from repro.dist.pipeline import distributed_cover, prepare_graph
from repro.dist.verify import cover_witnesses, distributed_check_cover
from repro.graph.csr import CSRGraph
from repro.graph.schema import edges_df
from repro.graphgen.models import uniform_digraph


def cover_df(spark, vs):
    return spark.createDataFrame([(int(v),) for v in vs], "v BIGINT")


def split(spark, pdf, k):
    """``pdf`` through the pipeline's weak split, as the verifier takes it."""
    return prepare_graph(spark, edges_df(spark, pdf), k)[0]


def witness_rows(spark, comp_edges, cover, k, **kw):
    wit = cover_witnesses(comp_edges, cover_df(spark, cover), k, **kw)
    return sorted(((r.comp, r.kind, tuple(r.vertices)) for r in wit.collect()),
                  key=repr)


def test_accepts_valid_cover(spark):
    pdf = uniform_digraph(25, 75, reciprocity=0.3, seed=1)
    e = edges_df(spark, pdf)
    res = distributed_cover(spark, e, 5, "tdb++")
    assert distributed_check_cover(spark, e, cover_df(spark, res.cover), 5)


def test_rejects_broken_cover(spark):
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0)], columns=["src", "dst"])
    e = edges_df(spark, pdf)
    assert not distributed_check_cover(spark, e, cover_df(spark, []), 3)
    assert distributed_check_cover(spark, e, cover_df(spark, [0]), 3)


def test_two_cycle_residue_not_a_violation(spark):
    # after removing nothing, a pure mutual pair survives the narrowing
    # but is not an uncovered 3..k cycle
    pdf = pd.DataFrame([(0, 1), (1, 0)], columns=["src", "dst"])
    e = edges_df(spark, pdf)
    assert distributed_check_cover(spark, e, cover_df(spark, []), 5)
    assert not distributed_check_cover(spark, e, cover_df(spark, []), 5,
                                       allow_two_cycles=True)


def test_planted_witnesses(spark):
    # One weak component, labelled 0. SCC {0,1,2}: one uncovered 3-cycle.
    # SCC {10..14}: two 3-cycles through 10, so 10 covers both and 11 is
    # redundant. 20 hangs off the first SCC on a tail edge: it is the
    # source of no edge, so redundant too, with no component.
    rows = [(0, 1), (1, 2), (2, 0),
            (10, 11), (11, 12), (12, 10), (10, 13), (13, 14), (14, 10),
            (2, 10), (2, 20)]
    pdf = pd.DataFrame(rows, columns=["src", "dst"])
    comp_edges = split(spark, pdf, 4)
    assert witness_rows(spark, comp_edges, [10, 11, 20], 4) == sorted([
        (0, "uncovered", (0, 1, 2)),
        (0, "redundant", (11,)),
        (None, "redundant", (20,)),
    ], key=repr)
    assert not distributed_check_cover(spark, edges_df(spark, pdf),
                                       cover_df(spark, [10, 11, 20]), 4)


def test_empty_cover_on_acyclic_graph(spark):
    pdf = pd.DataFrame([(0, 1), (1, 2), (0, 2), (2, 3), (4, 3)],
                       columns=["src", "dst"])
    assert witness_rows(spark, split(spark, pdf, 5), [], 5) == []


def multi_scc(seed):
    """Three random digraphs on disjoint ids, joined one way by bridge
    edges (so each keeps its own SCCs), plus a tail edge out of the last."""
    parts, base = [], 0
    for i in range(3):
        pdf = uniform_digraph(12, 30, reciprocity=0.4, seed=3 * seed + i)
        parts.append(pdf + base)
        base += 100
    bridges = [(0, 100), (100, 200), (205, 300)]
    parts.append(pd.DataFrame(bridges, columns=["src", "dst"]))
    return pd.concat(parts, ignore_index=True)


@pytest.mark.parametrize("allow_two_cycles", [False, True])
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("seed", range(2))
def test_agrees_with_driver_checks(spark, seed, k, allow_two_cycles):
    pdf = multi_scc(seed)
    g = CSRGraph.from_edges(pdf)
    cover = sorted(int(v) for v in run_algorithm(
        g, "tdb++", k, allow_two_cycles=allow_two_cycles).cover)
    assert cover, "the graph should have a constrained cycle"
    extra = next(int(v) for v in g.vertex_ids if int(v) not in cover)
    comp_edges = split(spark, pdf, k)
    for cov in (cover, cover[1:], cover + [extra]):
        rows = witness_rows(spark, comp_edges, cov, k,
                            allow_two_cycles=allow_two_cycles)
        feasible, _ = check_feasible(g, cov, k,
                                     allow_two_cycles=allow_two_cycles)
        _, redundant = check_minimal(g, cov, k,
                                     allow_two_cycles=allow_two_cycles)
        assert any(kind == "uncovered" for _, kind, _ in rows) != feasible
        assert sorted(vs[0] for _, kind, vs in rows
                      if kind == "redundant") == sorted(redundant)
