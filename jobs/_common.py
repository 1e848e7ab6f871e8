"""Shared spark-submit plumbing for the table jobs.

Each job builds (or reuses) the local SparkSession of
:mod:`repro.session`, the test fixture's config, prints the table, and
writes a CSV under ``results/``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from repro.session import spark_session

RESULTS = Path(__file__).resolve().parent.parent / "results"


def get_spark(app: str) -> SparkSession:
    s = spark_session(app)
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(df: pd.DataFrame, name: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}.csv"
    df.to_csv(out, index=False)
    pd.set_option("display.width", 200)
    pd.set_option("display.max_columns", 50)
    print(f"== {name} ==", file=sys.stderr)
    print(df.to_string(index=False))
    print(f"[saved {out}]", file=sys.stderr)
