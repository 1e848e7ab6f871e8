"""Spark edge frames for the Table II dataset analogs.

The detailed models and the registry of analogs live in
:mod:`repro.graphgen`; :func:`graph_edges` lifts one into the Spark edge
normal form used by the whole repo. Generators are deterministic, so every
run sees identical input.
"""
from pyspark.sql import DataFrame, SparkSession


def graph_edges(spark: SparkSession, name: str) -> DataFrame:
    """Edge DataFrame for a named Table II analog (see graphgen.registry)."""
    from .graphgen.registry import generate
    from .graph.schema import edges_df
    return edges_df(spark, generate(name))
