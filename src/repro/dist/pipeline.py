"""The distributed cover pipeline (DESIGN.md §3).

``prepare_graph``   normalize → one kernel group. Self-loops and
                    duplicate edges are dropped and every edge is
                    labelled ``comp = 0`` (:func:`single_group`); the
                    distributed verifier (:mod:`repro.dist.verify`)
                    checks this frame. No edge is dropped beyond that and
                    no k-aware reduction runs: each TDB kernel keeps the
                    edges inside one SCC
                    (:func:`~repro.dist.kernels.intra_scc_graph`), so
                    each algorithm's cover and ops depend only on the
                    normalized graph, not on how the input arrived. The
                    output ``(comp, src, dst)`` frame is checkpointed so
                    normalization runs once per dataset and every
                    algorithm is then measured on identical input.

``run_cover``       groups the prepared frame by component and runs the
                    chosen sequential kernel per component in parallel
                    (``applyInPandas``), collecting cover rows and
                    per-component stats. ``prepare_graph`` makes one
                    component; a frame with several ``comp`` values is
                    solved one kernel per value.

``distributed_cover`` = both steps, for one-shot use.

Reported timing: ``seconds`` on the returned :class:`CoverResult` is the
*kernel* time — the sum of per-component kernel seconds, i.e. the
sequential-equivalent algorithm cost that Table III compares (identical
shared prep would otherwise drown the 2-3 order-of-magnitude algorithm
gaps under constant Spark overhead). Wall-clock and prep times are kept
in ``extra``.
"""
from __future__ import annotations

import time
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.result import CoverResult
from ..graph.schema import normalize_edges
from .kernels import KERNEL_SCHEMA, solve_component

# Bound to None only so ``perfbench/spans.py``, which looks these names up
# with ``getattr`` to wrap them, keeps working. Nothing calls them.
trim = prefilter_edges = scc = None

ALGO_LABEL = {"bur": "BUR", "bur+": "BUR+", "tdb": "TDB", "tdb+": "TDB+",
              "tdb++": "TDB++", "darc-dv": "DARC-DV"}


def single_group(edges: DataFrame) -> DataFrame:
    """Wrap an edge frame as one kernel group (``comp = 0``).

    Every algorithm sees the whole graph; the TDB kernels keep its
    intra-SCC edges in-kernel (counted in their time)."""
    return edges.select(F.lit(0).cast("bigint").alias("comp"), "src", "dst")


def prepare_graph(spark: SparkSession, edges: DataFrame, k: int
                  ) -> tuple[DataFrame, dict]:
    """Normalize ``edges`` into one kernel group; returns
    ``(comp_edges, info)``.

    ``comp_edges`` has columns ``comp, src, dst``: every normalized edge,
    with ``comp = 0``. ``spark`` and ``k`` are unused; they keep the
    signature every caller passes positionally.
    """
    t0 = time.perf_counter()
    comp_edges = single_group(normalize_edges(edges)).localCheckpoint(
        eager=True)
    m = comp_edges.count()
    info = {"m_input": m, "m_partitioned": m, "n_components": int(m > 0),
            "prep_seconds": time.perf_counter() - t0}
    return comp_edges, info


def _flag_stats(out: pd.DataFrame) -> pd.DataFrame:
    """Kernel rows with a ``stat`` flag in place of the stats rows' NULL
    ``vertex``. pandas reads a BIGINT column holding NULLs as float64,
    which rounds ids above 2**53; flagging in the task adds no Spark
    operator."""
    return out.assign(stat=out.vertex.isna(), vertex=out.vertex.fillna(0))


def run_cover(comp_edges: DataFrame, algorithm: str, k: int, *,
              allow_two_cycles: bool = False,
              op_budget: int | None = None) -> CoverResult:
    """Per-component kernels over a prepared frame → one CoverResult."""
    t0 = time.perf_counter()
    kern = partial(solve_component, algorithm=algorithm, k=k,
                   allow_two_cycles=allow_two_cycles, op_budget=op_budget)
    out = (comp_edges.groupBy("comp")
           .applyInPandas(lambda pdf: _flag_stats(kern(pdf)),
                          schema="stat BOOLEAN, " + KERNEL_SCHEMA)
           .toPandas())
    wall = time.perf_counter() - t0
    stats = out[out.stat]
    cover = out[~out.stat]
    kernel_seconds = float(stats.seconds.sum())
    finished = bool(stats.finished.all()) if len(stats) else True
    return CoverResult(
        algorithm=ALGO_LABEL[algorithm], k=k,
        cover=cover.vertex.to_numpy(dtype=np.int64),
        seconds=kernel_seconds, ops=int(stats.ops.sum()),
        allow_two_cycles=allow_two_cycles, finished=finished,
        extra={"wall_seconds": wall, "n_components": len(stats)},
    )


def distributed_cover(spark: SparkSession, edges: DataFrame, k: int,
                      algorithm: str = "tdb++", *,
                      allow_two_cycles: bool = False,
                      op_budget: int | None = None) -> CoverResult:
    """One-shot: prepare the graph and run one algorithm."""
    comp_edges, info = prepare_graph(spark, edges, k)
    res = run_cover(comp_edges, algorithm, k,
                    allow_two_cycles=allow_two_cycles, op_budget=op_budget)
    res.extra.update(info)
    return res
