"""Distributed weak split: every edge labelled by its weak component.

Constrained cycles never cross SCCs, and every SCC lies inside one weak
component, so the weak components are independent cover subproblems. This
is the partitioner of the cover pipeline
(:func:`repro.dist.pipeline.prepare_graph`), whose output the distributed
verifier (:mod:`repro.dist.verify`) checks as it is. Two steps:

1. **Weak components** — one grouped pandas task over all edges runs a
   union-find in numpy: hook every root to the smallest root next to it,
   then pointer-jump until every label is a root (Shiloach & Vishkin,
   J. Algorithms 1982), until both ends of every edge agree. Every vertex
   ends up labelled with the smallest id of its weakly connected
   component. The passes run inside the task, so the Spark job count does
   not grow with the graph's diameter.
2. **One join** — every edge takes its source's label as ``comp``.

The task holds every edge as int64 arrays. On all 16 registry analogs the
largest weak component holds at least 98.9% of the edges, and a kernel
task holds that whole component anyway, so the split task holds at most
1.011x the edges of the largest kernel task.

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

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

WEAK_SCHEMA = "v BIGINT, weak BIGINT"


def label_weak(pdf: pd.DataFrame) -> pd.DataFrame:
    """``(v, weak)`` for every vertex of the ``src, dst`` edges in ``pdf``.

    Vertices are renumbered ``0..n-1`` in id order, so the smallest index
    of a component is its smallest id. ``label[x] <= x`` always holds and
    every pass either lowers some root's label or finds every edge agreed,
    so the loop ends."""
    ids, ends = np.unique(pdf[["src", "dst"]].to_numpy(dtype=np.int64),
                          return_inverse=True)
    ends = ends.reshape(-1, 2)
    src, dst = ends[:, 0], ends[:, 1]
    label = np.arange(len(ids))
    while True:
        a, b = label[src], label[dst]
        if np.array_equal(a, b):
            return pd.DataFrame({"v": ids, "weak": ids[label]})
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def weak_components(edges: DataFrame) -> DataFrame:
    """``(v, weak)``: the smallest vertex id of ``v``'s weak component."""
    # A bare integer literal would be read as a group-by ordinal.
    return (edges.select("src", "dst").groupBy(F.lit(0).alias("all"))
            .applyInPandas(label_weak, schema=WEAK_SCHEMA))


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
