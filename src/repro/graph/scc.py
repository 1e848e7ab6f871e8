"""Distributed weak split: every edge labelled by its weak component.

Constrained cycles never cross SCCs, and every SCC lies inside one weak
component, so the weak components are independent cover subproblems. This
is the partitioner of the cover pipeline
(:func:`repro.dist.pipeline.prepare_graph`), whose output the distributed
verifier (:mod:`repro.dist.verify`) checks as it is. Two steps:

1. **Weak components** — min-label propagation over the edges in both
   directions, iterated with no cap until no vertex changes its label, so
   the labels are always the fixpoint. Every vertex ends up labelled with
   the smallest id of its weakly connected component.
2. **One join** — every edge takes its source's label as ``comp``.

No edge is dropped and no Tarjan runs here: the TDB kernels and the
verifier's feasibility sweep narrow their weak component to the intra-SCC
edges in-process (:func:`repro.dist.kernels.intra_scc_graph`,
:func:`repro.core.verify.check_feasible`), and the baselines search it as
given. Every search stays inside its weak component, so a group's cover
and op count are those of the same vertices inside one raw group. On 15
of the 16 registry analogs exactly one weak component holds a cycle, so a
finer Spark split would buy no parallelism.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .schema import vertices


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


def scc(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """Every edge with its weak component, as ``(comp, src, dst)``.

    ``edges`` is in normal form (:func:`repro.graph.schema.normalize_edges`).
    ``comp`` is the smallest vertex id of the edge's weak component, so
    each SCC lies inside one ``comp``. The name is kept because
    ``perfbench/spans.py`` wraps ``pipeline.scc``; ``spark`` is unused and
    keeps ``edges`` the second positional argument, which it relies on.
    """
    weak = weak_components(edges)
    return (edges.join(weak.select(F.col("v").alias("src"),
                                   F.col("weak").alias("comp")), "src")
            .select("comp", "src", "dst"))
