"""Technique-speedup harness (the paper's Fig. 10 rendered as a table —
figures are out of scope, but the claim "the block and BFS-filter
techniques provide the speedup, more so for larger k / bigger graphs" is
worth a regenerable artifact).

The three techniques run on the raw graph as one kernel group, like Table
III's small tier, so each searches the same intra-SCC graph and TDB++'s
cover equals Table III's at k = 5. On the small WKV/WGO analogs (Fig. 10's
datasets) all techniques are close — their cyclic cores are
success-dominated; on the hierarchical FLK analog the block technique
separates (~2-3x fewer ops than plain TDB). Even plain TDB survives the
acyclic bulk that kills bottom-up search, because the top-down working
graph G0 grows from empty (§VI-A's point: search spaces range from the
empty graph to G-R, not from G); the paper's orders-of-magnitude Fig. 10
gaps require full-scale graphs. Covers of finished runs are identical by
construction (asserted)."""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..dist.pipeline import run_cover, single_group
from ..synth_data import graph_edges

TECHNIQUES = ["tdb", "tdb+", "tdb++"]


def run_speedup(spark: SparkSession, *, datasets: tuple = ("WKV", "WGO"),
                ks: tuple = (3, 4, 5, 6, 7),
                op_budget: int | None = 600_000_000) -> pd.DataFrame:
    rows = []
    for name in datasets:
        raw = single_group(graph_edges(spark, name)).localCheckpoint(
            eager=True)
        for k in ks:
            sizes = set()
            row = {"dataset": name, "k": k}
            for tech in TECHNIQUES:
                res = run_cover(raw, tech, k, op_budget=op_budget)
                label = res.algorithm
                row[f"{label}_ops"] = res.ops
                if res.finished:
                    row[f"{label}_s"] = round(res.seconds, 3)
                    row[f"{label}_size"] = res.size
                    sizes.add(res.size)
                else:
                    row[f"{label}_s"] = np.nan
                    row[f"{label}_size"] = np.nan
            assert len(sizes) <= 1, \
                f"TDB/TDB+/TDB++ covers differ on {name} k={k}: {sizes}"
            rows.append(row)
    return pd.DataFrame(rows)
