"""Distributed cover verification on the pipeline's normalized graph.

No constrained cycle crosses an SCC boundary, and both of the paper's
conditions are per cycle: a cover is feasible iff it hits every
constrained cycle (Thm 1/4), and minimal iff every cover vertex has a
private cycle, one that no other cover vertex hits (Thm 7). So every
witness that refutes a cover lies inside one SCC of ``G``, and the check
runs per kernel group of any frame whose groups hold whole SCCs:

1. the cover pipeline's own ``(comp, src, dst)`` frame from
   :func:`repro.dist.pipeline.prepare_graph`: the normalized input graph
   as one group, checked as it is (the verifier trusts no partition: it
   checks the same edges the kernels ran on);
2. the cover left-joined onto ``src`` as a ``covered`` flag: every vertex
   on a cycle is the source of an edge of its group;
3. one ``groupBy("comp").applyInPandas`` running the exact
   :func:`~repro.core.verify.check_feasible` (which narrows to the
   non-trivial SCCs itself) and :func:`~repro.core.verify.check_minimal`
   on that group's CSR;
4. every cover vertex that is the source of no edge, which lies on no
   cycle and so is redundant (``comp`` NULL).

Nothing is collected to the driver but the verdict.
"""
from __future__ import annotations

from functools import partial

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.verify import check_feasible, check_minimal
from ..graph.csr import CSRGraph
from .kernels import forget_zip_finders
from .pipeline import prepare_graph

WITNESS_SCHEMA = "comp BIGINT, kind STRING, vertices ARRAY<BIGINT>"

# Bound to None only so ``perfbench/spans.py``, which looks these names up
# with ``getattr`` to wrap them, keeps working. Nothing calls them.
normalize_edges = trim = prefilter_edges = remove_cover = None


def _component_witnesses(pdf: pd.DataFrame, *, k: int,
                         allow_two_cycles: bool) -> pd.DataFrame:
    """One group's flagged edges → its witness rows (original labels)."""
    forget_zip_finders()
    comp = int(pdf["comp"].iloc[0])
    g = CSRGraph.from_edges(pdf)
    cover = pdf.loc[pdf["covered"], "src"].unique()
    rows = []
    ok, cycle = check_feasible(g, cover, k,
                               allow_two_cycles=allow_two_cycles)
    if not ok:
        rows.append(("uncovered", g.to_labels(cycle).tolist()))
    _, redundant = check_minimal(g, cover, k,
                                 allow_two_cycles=allow_two_cycles)
    rows += [("redundant", [v]) for v in redundant]
    return pd.DataFrame({
        "comp": pd.Series([comp] * len(rows), dtype="int64"),
        "kind": pd.Series([kind for kind, _ in rows], dtype=object),
        "vertices": pd.Series([vs for _, vs in rows], dtype=object)})


def cover_witnesses(comp_edges: DataFrame, cover: DataFrame, k: int, *,
                    allow_two_cycles: bool = False) -> DataFrame:
    """Every refutation of ``cover`` (column ``v``) as a constrained-cycle
    cover of ``comp_edges``, the frame of :func:`~.pipeline.prepare_graph`:
    ``(comp, kind, vertices)`` rows in original labels.

    ``kind`` is ``"uncovered"`` (``vertices`` is one constrained cycle that
    misses the cover; at most one per group) or ``"redundant"`` (one
    cover vertex with no private cycle; ``comp`` is NULL when it is the
    source of no edge). No rows: the cover is feasible and minimal.
    """
    cover = cover.select("v").distinct()
    flagged = (comp_edges
               .join(cover.select(F.col("v").alias("src"),
                                  F.lit(True).alias("covered")),
                     "src", "left")
               .fillna(False, subset=["covered"]))
    check = partial(_component_witnesses, k=k,
                    allow_two_cycles=allow_two_cycles)
    inside = flagged.groupBy("comp").applyInPandas(
        lambda pdf: check(pdf), schema=WITNESS_SCHEMA)
    outside = (cover
               .join(comp_edges.select(F.col("src").alias("v")), "v",
                     "left_anti")
               .select(F.lit(None).cast("bigint").alias("comp"),
                       F.lit("redundant").alias("kind"),
                       F.array("v").alias("vertices")))
    return inside.unionByName(outside)


def distributed_check_cover(spark: SparkSession, edges: DataFrame,
                            cover: DataFrame, k: int, *,
                            allow_two_cycles: bool = False) -> bool:
    """True iff ``cover`` hits every constrained cycle of ``edges``."""
    comp_edges, _ = prepare_graph(spark, edges, k)
    return (cover_witnesses(comp_edges, cover, k,
                            allow_two_cycles=allow_two_cycles)
            .where(F.col("kind") == "uncovered")
            .isEmpty())
