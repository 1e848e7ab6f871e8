"""Table III harness — cover size and runtime, k = 5.

Measurement protocol (mirrors the paper's):

* **small tier** — every algorithm runs on the *raw* graph as one Spark
  kernel group (``single_group``). The TDB family performs its own
  SCC/short-walk reductions in-kernel, *inside its measured time*;
  the baselines run the graph as published. Reported seconds are
  in-kernel seconds (Spark task-scheduling constants excluded
  symmetrically for all algorithms).
* **large tier** — the baselines still get the raw graph and exhaust
  their op budget (the paper's "-"); TDB++ runs the full distributed
  pipeline (trim/SCC in Spark, per-component kernels in parallel) and
  reports prep + kernel seconds.

The TDB++ cover is verified feasible by the distributed checker and (on
the small tier) minimal by the exact kernel checker before a row is
emitted.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.verify import check_minimal
from ..dist.pipeline import prepare_graph, run_cover, single_group
from ..dist.verify import distributed_check_cover
from ..graph.csr import CSRGraph
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
               budgets: dict | None = None, verify: bool = True
               ) -> pd.DataFrame:
    """One row per dataset with per-algorithm size/seconds (NaN = DNF)."""
    budgets = {**DEFAULT_BUDGETS, **(budgets or {})}
    algorithms = algorithms or ALGOS
    rows = []
    for name in (datasets or list(DATASETS)):
        spec = DATASETS[name]
        edges = graph_edges(spark, name).localCheckpoint(eager=True)
        raw = single_group(edges).localCheckpoint(eager=True)
        row: dict = {"dataset": name, "tier": spec.tier}
        for algo in algorithms:
            use_pipeline = spec.tier == "large" and algo.startswith("tdb")
            if use_pipeline:
                comp_edges, info = prepare_graph(spark, edges, k)
                res = run_cover(comp_edges, algo, k,
                                op_budget=budgets.get(algo))
                seconds = info["prep_seconds"] + res.seconds
            else:
                res = run_cover(raw, algo, k, op_budget=budgets.get(algo))
                seconds = res.seconds
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
            if verify and res.finished and algo == "tdb++":
                cov = spark.createDataFrame(
                    [(int(v),) for v in res.cover] or [(-1,)], "v BIGINT")
                assert distributed_check_cover(spark, edges, cov, k), \
                    f"TDB++ cover infeasible on {name}"
                if spec.tier == "small":
                    g = CSRGraph.from_edges(edges.toPandas())
                    ok_min, red = check_minimal(g, res.cover, k)
                    assert ok_min, \
                        f"TDB++ cover not minimal on {name}: {red}"
        rows.append(row)
    return pd.DataFrame(rows)
