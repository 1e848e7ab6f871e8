"""Distributed SCC: weak components, then one grouped Tarjan pass.

Constrained cycles never cross SCCs, so this is the partitioner that makes
the cover problem embarrassingly parallel per component, and the one graph
reduction: the cover pipeline (:func:`repro.dist.pipeline.prepare_graph`)
and the distributed verifier (:mod:`repro.dist.verify`) both run it. Two
steps:

1. **Weak components** — min-label propagation over the edges in both
   directions, iterated with no cap until no vertex changes its label, so
   the labels are always the fixpoint. Every vertex ends up labelled with
   the smallest id of its weakly connected component.
2. **Grouped Tarjan** — one ``groupBy(weak).applyInPandas`` pass: every
   SCC lies inside one weak component, so each task runs the sequential
   :func:`repro.graph.tarjan.scc_edge_mask` on its weak component's edges
   and emits only the edges inside one SCC, already labelled by component.
   The TDB kernels apply the same rule, so a component's frame is already
   the graph they search.

The result is exact at any depth of SCC chain, in a number of Spark jobs
bounded by the weak components' propagation depth. It also drops every
vertex and edge that a trim would peel (they lie in no non-trivial SCC),
so no trim runs anywhere. One task holds one whole
weak component, about the size of the cover kernel's own task for the
largest SCC: with no trim in front, the largest weak component holds
1.00–1.31x the edges of the largest SCC on the small registry analogs and
1.09–1.25x on FLK/LJ/WKP/TW. EU (7.27x) and WIT (2.47x) are higher, but
their largest SCCs have only 735 and 2,703 edges.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .csr import CSRGraph
from .schema import vertices
from .tarjan import scc_edge_mask

SCC_SCHEMA = "comp BIGINT, src BIGINT, dst BIGINT"


def weak_components(edges: DataFrame) -> DataFrame:
    """``(v, weak)``: the smallest vertex id of ``v``'s weak component."""
    both = (edges.select("src", "dst")
            .unionByName(edges.select(F.col("dst").alias("src"),
                                      F.col("src").alias("dst")))
            .localCheckpoint(eager=True))
    label = vertices(edges).select("v", F.col("v").alias("weak")) \
        .localCheckpoint(eager=True)
    while True:
        msgs = (both.join(label, both.src == label.v)
                .groupBy(F.col("dst").alias("v"))
                .agg(F.min("weak").alias("m")))
        nxt = (label.join(msgs, "v", "left_outer")
               .select("v", F.least("weak", F.coalesce("m", "weak"))
                       .alias("weak"),
                       (F.col("m") < F.col("weak")).alias("changed"))
               .localCheckpoint(eager=True))
        label = nxt.select("v", "weak")
        if nxt.where("changed").isEmpty():
            return label


def _tarjan_group(pdf: pd.DataFrame) -> pd.DataFrame:
    """One weak component's edges → its intra-SCC edges ``(comp, src,
    dst)``, comp = max id in the SCC."""
    g = CSRGraph.from_edges(pdf)
    local, inside = scc_edge_mask(g)
    top = np.full(local.max() + 1, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(top, local, g.vertex_ids)
    src, dst = g.edge_array()[inside].T
    return pd.DataFrame({"comp": top[local[src]], "src": g.vertex_ids[src],
                         "dst": g.vertex_ids[dst]})


def scc(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """The edges inside one SCC, as ``(comp, src, dst)``.

    ``edges`` is in normal form (:func:`repro.graph.schema.normalize_edges`).
    ``comp`` is the largest vertex id in the edge's SCC. Edges between
    SCCs lie on no cycle and are dropped, so singleton SCCs contribute no
    rows. ``spark`` is unused; it keeps ``edges`` the second positional
    argument, which ``perfbench/spans.py`` relies on.
    """
    weak = weak_components(edges)
    return (edges.join(weak.select(F.col("v").alias("src"), "weak"), "src")
            .groupBy("weak")
            .applyInPandas(_tarjan_group, schema=SCC_SCHEMA))
