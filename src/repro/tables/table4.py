"""Table IV harness — TDB++ cover size with vs without 2-cycles, k = 5.

Both modes run on the same raw kernel group (``single_group``): the
kernel's intra-SCC reduction is valid for both (a 2-cycle lies inside
one SCC too), and no Spark reduction runs. Only the kernel's
``allow_two_cycles`` flag changes.
The paper's observation to reproduce: including 2-cycles blows the cover
up ~3x on average, most on high-reciprocity graphs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..dist.pipeline import run_cover, single_group
from ..graphgen.registry import SMALL
from ..synth_data import graph_edges
from .paper import TABLE4


def run_table4(spark: SparkSession, *, k: int = 5,
               datasets: list[str] | None = None,
               op_budget: int | None = 4_000_000_000) -> pd.DataFrame:
    rows = []
    for name in (datasets or SMALL):
        raw = single_group(graph_edges(spark, name)).localCheckpoint(
            eager=True)
        no2 = run_cover(raw, "tdb++", k, allow_two_cycles=False,
                        op_budget=op_budget)
        with2 = run_cover(raw, "tdb++", k, allow_two_cycles=True,
                          op_budget=op_budget)
        paper = TABLE4.get(name)
        rows.append({
            "dataset": name,
            "no_2cycle": no2.size, "with_2cycle": with2.size,
            "ratio": round(with2.size / max(no2.size, 1), 2),
            "paper_no_2cycle": paper[0] if paper else np.nan,
            "paper_with_2cycle": paper[1] if paper else np.nan,
            "paper_ratio": paper[2] if paper else np.nan,
        })
    return pd.DataFrame(rows)
