"""Table III harness — cover size and runtime, k = 5.

Measurement protocol (mirrors the paper's): every algorithm runs on the
dataset's normalized graph as one Spark kernel group (``single_group``),
at every tier. The TDB family keeps the graph's intra-SCC edges
in-kernel, *inside its measured time*; the baselines run the graph as
published. Reported seconds are in-kernel seconds (Spark task-scheduling
constants excluded symmetrically for all algorithms). On the large tier
BUR+ exhausts its op budget (the paper's "-"); DARC-DV does so on TW only.

At every tier each finished cover (TDB++, BUR+ and DARC-DV alike) is
verified feasible and minimal before a row is emitted:
:func:`~repro.dist.verify.cover_witnesses` runs the exact checks on the
same frame the kernels ran on and must return no witness.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..dist.pipeline import run_cover, single_group
from ..dist.verify import cover_witnesses
from ..graphgen.registry import DATASETS
from ..synth_data import graph_edges
from .paper import TABLE3

# 'edge traversal' budgets; the large tier is sized so BUR+ exhausts its
# budget while TDB++ completes (the paper's "-" cells).
DEFAULT_BUDGETS = {"darc-dv": 700_000_000, "bur+": 700_000_000,
                   "tdb++": 8_000_000_000}
ALGOS = ["darc-dv", "bur+", "tdb++"]


def run_table3(spark: SparkSession, *, k: int = 5,
               datasets: list[str] | None = None,
               algorithms: list[str] | None = None,
               budgets: dict | None = None) -> pd.DataFrame:
    """One row per dataset with per-algorithm size/seconds (NaN = DNF)."""
    budgets = {**DEFAULT_BUDGETS, **(budgets or {})}
    algorithms = algorithms or ALGOS
    rows = []
    for name in (datasets or list(DATASETS)):
        spec = DATASETS[name]
        # graph_edges is normalized at load, so this is prepare_graph's frame
        graph = single_group(graph_edges(spark, name)).localCheckpoint(
            eager=True)
        row: dict = {"dataset": name, "tier": spec.tier}
        for algo in algorithms:
            res = run_cover(graph, algo, k, op_budget=budgets.get(algo))
            col = res.algorithm
            if res.finished:
                row[f"{col}_size"] = res.size
                row[f"{col}_s"] = round(res.seconds, 3)
            else:
                row[f"{col}_size"] = np.nan
                row[f"{col}_s"] = np.nan
            paper = TABLE3.get(name, {}).get(col)
            row[f"{col}_paper_size"] = paper[0] if paper else np.nan
            row[f"{col}_paper_s"] = paper[1] if paper else np.nan
            if res.finished:
                cov = spark.createDataFrame([(int(v),) for v in res.cover],
                                            "v BIGINT")
                bad = cover_witnesses(graph, cov, k).limit(5).collect()
                assert not bad, \
                    f"{col} cover not a minimal cover on {name}: {bad}"
        rows.append(row)
    return pd.DataFrame(rows)
