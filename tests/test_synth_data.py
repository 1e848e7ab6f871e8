"""Spark edge frames for the named dataset analogs."""
from repro import synth_data
from repro.graph.schema import graph_stats


def test_graph_edges_named(spark):
    e = synth_data.graph_edges(spark, "WKV")
    st = graph_stats(e)
    assert st["m"] > 3000 and st["n"] <= 300
