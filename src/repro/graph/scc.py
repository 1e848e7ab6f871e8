"""Distributed SCC: weak components, then one grouped Tarjan pass.

Constrained cycles never cross SCCs, so this is the partitioner that makes
the cover problem embarrassingly parallel per component. Two steps:

1. **Weak components** — min-label propagation over the edges in both
   directions, iterated with no cap until no vertex changes its label, so
   the labels are always the fixpoint. Every vertex ends up labelled with
   the smallest id of its weakly connected component.
2. **Grouped Tarjan** — one ``groupBy(weak).applyInPandas`` pass: every
   SCC lies inside one weak component, so each task runs the sequential
   :func:`repro.graph.tarjan.tarjan_scc` on its weak component's edges.

The result is exact at any depth of SCC chain, in a number of Spark jobs
bounded by the weak components' propagation depth. One task holds one
whole weak component, about the size of the cover kernel's own task for
the largest SCC: on the registry analogs, after trim, the
largest weak component holds at most 1.083x the edges of the largest SCC
(EU), at most 1.015x on every other analog and 1.000x on FLK/LJ/WKP/TW.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .csr import CSRGraph
from .schema import vertices
from .tarjan import tarjan_scc

SCC_SCHEMA = "v BIGINT, comp BIGINT"


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
    """One weak component's edges → ``(v, comp)``, comp = max id in SCC."""
    g = CSRGraph.from_edges(pdf)
    local = tarjan_scc(g)
    top = np.full(local.max() + 1, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(top, local, g.vertex_ids)
    return pd.DataFrame({"v": g.vertex_ids, "comp": top[local]})


def scc(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """Component assignment ``(v, comp)`` for every vertex of ``edges``.

    ``edges`` is in normal form (:func:`repro.graph.schema.normalize_edges`).
    ``comp`` is the largest vertex id in ``v``'s SCC, so a singleton SCC's
    comp is its own id. ``spark`` is unused; it keeps ``edges`` the second
    positional argument, which ``perfbench/spans.py`` relies on.
    """
    weak = weak_components(edges)
    return (edges.join(weak.select(F.col("v").alias("src"), "weak"), "src")
            .groupBy("weak")
            .applyInPandas(_tarjan_group, schema=SCC_SCHEMA))
