"""Bulk k-hop circuit filter — the distributed form of Algorithm 11.

For *every* vertex simultaneously, decide whether it lies on a closed
walk of length <= k: BFS frontiers ``(root, v)`` are grown ``k-1`` times
by joining with the edge table, and a root is flagged when some reached
vertex has an edge back to it. The closed-walk length is a lower bound on
any simple-cycle length through the root, so unflagged vertices are on
*no* constrained cycle and can be deleted graph-wide (a may-analysis:
flagged vertices still need an exact check, exactly like the paper's
per-vertex filter). Its one caller is the distributed verifier
(:mod:`repro.dist.verify`); the cover pipeline leaves k-aware reduction
to the TDB kernels' in-kernel restrict.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def circuit_candidates(edges: DataFrame, k: int) -> DataFrame:
    """Vertices (column ``v``) on some closed walk of length <= k."""
    if k < 2:
        return edges.sparkSession.createDataFrame([], "v BIGINT")
    # visited(root, v): v reachable from root in 1..k-1 hops
    visited = (edges.select(F.col("src").alias("root"),
                            F.col("dst").alias("v"))
               .where(F.col("root") != F.col("v"))
               .distinct()
               .localCheckpoint(eager=True))
    frontier = visited
    for _ in range(k - 2):
        if frontier.isEmpty():
            break
        grown = (frontier.join(edges, frontier.v == edges.src)
                 .select("root", F.col("dst").alias("v"))
                 .where(F.col("root") != F.col("v"))
                 .distinct()
                 .join(visited, ["root", "v"], "left_anti")
                 .localCheckpoint(eager=True))
        visited = visited.unionByName(grown).localCheckpoint(eager=True)
        frontier = grown
    closing = edges.select(F.col("src").alias("v"),
                           F.col("dst").alias("root"))
    return (visited.join(closing, ["root", "v"], "leftsemi")
            .select(F.col("root").alias("v"))
            .distinct())


def prefilter_edges(edges: DataFrame, k: int) -> DataFrame:
    """Restrict the graph to circuit candidates (sound cycle-preserving
    deletion: a non-candidate is on no constrained cycle, so neither are
    its edges)."""
    cand = circuit_candidates(edges, k)
    return (edges
            .join(cand.withColumnRenamed("v", "src"), "src", "leftsemi")
            .join(cand.withColumnRenamed("v", "dst"), "dst", "leftsemi")
            .select("src", "dst"))
