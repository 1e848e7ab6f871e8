"""Table III harness — cover size and runtime, k = 5.

Measurement protocol (mirrors the paper's):

* **small tier** — every algorithm runs on the *raw* graph as one Spark
  kernel group (``single_group``). The TDB family keeps the graph's
  intra-SCC edges in-kernel, *inside its measured time*; the baselines
  run the graph as published. Reported seconds are
  in-kernel seconds (Spark task-scheduling constants excluded
  symmetrically for all algorithms).
* **large tier** — the baselines still get the raw graph and exhaust
  their op budget (the paper's "-"); TDB++ runs the full distributed
  pipeline (weak split in Spark, per-component kernels in parallel) and
  reports prep + kernel seconds.

At every tier the TDB++ cover is verified feasible and minimal before a
row is emitted: :func:`~repro.dist.verify.cover_witnesses` runs the exact
checks per weak component of the dataset's one ``prepare_graph`` split
(which the large tier's TDB++ run shares) and must return no witness.
"""
from __future__ import annotations

from functools import cache, partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..dist.pipeline import prepare_graph, run_cover, single_group
from ..dist.verify import cover_witnesses
from ..graphgen.registry import DATASETS
from ..synth_data import graph_edges
from .paper import TABLE3

# 'edge traversal' budgets; the large tier is sized so the baselines
# exhaust these while TDB++ completes (the paper's "-" cells).
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
        edges = graph_edges(spark, name).localCheckpoint(eager=True)
        raw = single_group(edges).localCheckpoint(eager=True)
        prepared = cache(partial(prepare_graph, spark, edges, k))
        row: dict = {"dataset": name, "tier": spec.tier}
        for algo in algorithms:
            comp_edges, prep_s = raw, 0.0
            if spec.tier == "large" and algo.startswith("tdb"):
                comp_edges, info = prepared()
                prep_s = info["prep_seconds"]
            res = run_cover(comp_edges, algo, k, op_budget=budgets.get(algo))
            seconds = prep_s + res.seconds
            col = res.algorithm
            if res.finished:
                row[f"{col}_size"] = res.size
                row[f"{col}_s"] = round(seconds, 3)
            else:
                row[f"{col}_size"] = np.nan
                row[f"{col}_s"] = np.nan
            paper = TABLE3.get(name, {}).get(col)
            row[f"{col}_paper_size"] = paper[0] if paper else np.nan
            row[f"{col}_paper_s"] = paper[1] if paper else np.nan
            if res.finished and algo == "tdb++":
                cov = spark.createDataFrame([(int(v),) for v in res.cover],
                                            "v BIGINT")
                bad = cover_witnesses(prepared()[0], cov, k).limit(5).collect()
                assert not bad, \
                    f"TDB++ cover not a minimal cover on {name}: {bad}"
        rows.append(row)
    return pd.DataFrame(rows)
