"""The distributed cover pipeline (DESIGN.md §3).

``prepare_graph``   normalize → weak split. Iterative DataFrame dataflow
                    for the weak components plus one join that labels
                    every edge with its weak component
                    (:mod:`repro.graph.scc`); the distributed verifier
                    (:mod:`repro.dist.verify`) checks this frame. No
                    edge is dropped and no k-aware reduction runs: each
                    TDB kernel keeps the edges inside one SCC
                    (:func:`~repro.dist.kernels.intra_scc_graph`), and
                    every search of every algorithm stays inside its weak
                    component, so each algorithm's cover and ops are the
                    same as on the raw graph as one group. The output
                    ``(comp, src, dst)`` frame is checkpointed so the
                    shared phases run once per dataset and every algorithm
                    is then measured on identical partitioned input.

``run_cover``       groups the prepared frame by component and runs the
                    chosen sequential kernel per component in parallel
                    (``applyInPandas``), collecting cover rows and
                    per-component stats.

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
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.result import CoverResult
from ..graph.schema import normalize_edges
from ..graph.scc import scc
from .kernels import KERNEL_SCHEMA, solve_component

# Bound to None only so ``perfbench/spans.py``, which looks these names up
# with ``getattr`` to wrap them, keeps working. Nothing calls them.
trim = prefilter_edges = None

ALGO_LABEL = {"bur": "BUR", "bur+": "BUR+", "tdb": "TDB", "tdb+": "TDB+",
              "tdb++": "TDB++", "darc-dv": "DARC-DV"}


def single_group(edges: DataFrame) -> DataFrame:
    """Wrap a raw edge frame as one kernel group (``comp = 0``).

    The paper-faithful execution mode for graphs that fit one task: every
    algorithm sees the raw graph; the TDB kernels keep its intra-SCC edges
    in-kernel (counted in their time). ``prepare_graph`` is the scale-out
    alternative."""
    return edges.select(F.lit(0).cast("bigint").alias("comp"), "src", "dst")


def prepare_graph(spark: SparkSession, edges: DataFrame, k: int
                  ) -> tuple[DataFrame, dict]:
    """Shared distributed phases; returns ``(comp_edges, info)``.

    ``comp_edges`` has columns ``comp, src, dst``: every normalized edge,
    labelled by its weak component. No phase here uses ``k``.
    """
    info: dict = {}
    t0 = time.perf_counter()
    e = normalize_edges(edges).localCheckpoint(eager=True)
    info["m_input"] = e.count()
    comp_edges = scc(spark, e).localCheckpoint(eager=True)
    sizes = comp_edges.agg(F.count("*").alias("m"),
                           F.countDistinct("comp").alias("c")).first()
    info["m_partitioned"] = sizes["m"]
    info["n_components"] = sizes["c"]
    info["prep_seconds"] = time.perf_counter() - t0
    return comp_edges, info


def run_cover(comp_edges: DataFrame, algorithm: str, k: int, *,
              allow_two_cycles: bool = False,
              op_budget: int | None = None) -> CoverResult:
    """Per-component kernels over a prepared frame → one CoverResult."""
    t0 = time.perf_counter()
    kern = partial(solve_component, algorithm=algorithm, k=k,
                   allow_two_cycles=allow_two_cycles, op_budget=op_budget)
    out = (comp_edges.groupBy("comp")
           .applyInPandas(lambda pdf: kern(pdf), schema=KERNEL_SCHEMA)
           .toPandas())
    wall = time.perf_counter() - t0
    stats = out[out.vertex.isna()]
    cover = out[out.vertex.notna()]
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
