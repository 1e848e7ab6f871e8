"""Table harnesses: shape, verification hooks, DNF machinery.

Full-scale table regeneration lives in jobs/ (and EXPERIMENTS.md); these
tests run the harnesses on the smallest configurations to keep the suite
fast while still exercising the real code paths end to end.
"""
import numpy as np
import pytest

import repro.graph.scc as scc_mod
from repro.tables.paper import TABLE3, TABLE4
from repro.tables.table2 import run_table2
from repro.tables.table3 import run_table3
from repro.tables.table4 import run_table4
from repro.tables.speedup import run_speedup


def test_paper_numbers_complete():
    assert set(TABLE3) == {"WKV", "ASC", "GNU", "EU", "SAD", "WND", "CT",
                           "WST", "LOAN", "WIT", "WGO", "WBS", "FLK", "LJ",
                           "WKP", "TW"}
    for d, row in TABLE3.items():
        assert set(row) == {"DARC-DV", "BUR+", "TDB++"}
    assert len(TABLE4) == 12
    for no2, with2, ratio in TABLE4.values():
        assert with2 >= no2
        assert ratio == pytest.approx(with2 / no2, abs=0.01)


def test_table2_rows(spark):
    df = run_table2(spark, datasets=["WKV", "GNU"])
    assert list(df.dataset) == ["WKV", "GNU"]
    assert (df.V > 0).all() and (df.E > 0).all()
    assert (df.paper_V > df.V).all()  # analogs are scaled down
    assert {"d_avg", "reciprocity", "scale_V"} <= set(df.columns)


def test_table3_row_small(spark):
    df = run_table3(spark, datasets=["WKV"], algorithms=["tdb++"])
    row = df.iloc[0]
    assert row["dataset"] == "WKV"
    assert row["TDB++_size"] > 0
    assert row["TDB++_s"] >= 0
    assert row["TDB++_paper_size"] == 491


def test_table3_dnf_rendering(spark):
    # absurdly small budget -> DNF -> NaN cells
    df = run_table3(spark, datasets=["WKV"], algorithms=["bur+"],
                    budgets={"bur+": 10})
    assert np.isnan(df.iloc[0]["BUR+_size"])
    assert np.isnan(df.iloc[0]["BUR+_s"])


def test_table3_large_tier_splits_once(spark, monkeypatch):
    # Large tier: TDB++ runs on prepare_graph's weak split and the verifier
    # checks that same frame, so the min-label loop runs once per dataset.
    calls = []
    weak_components = scc_mod.weak_components

    def counted(edges):
        calls.append(1)
        return weak_components(edges)

    monkeypatch.setattr(scc_mod, "weak_components", counted)
    df = run_table3(spark, datasets=["FLK"], algorithms=["tdb++"])
    assert len(calls) == 1
    row = df.iloc[0]
    assert row["tier"] == "large"
    # a size means TDB++ finished; run_table3 asserts, before it emits the
    # row, that the verifier found no witness against its cover
    assert row["TDB++_size"] > 0
    assert row["TDB++_s"] > 0


def test_table4_row(spark):
    df = run_table4(spark, datasets=["WKV"])
    row = df.iloc[0]
    assert row["with_2cycle"] >= row["no_2cycle"] > 0
    assert row["ratio"] >= 1.0
    assert row["paper_ratio"] == 1.45


def test_speedup_row(spark):
    df = run_speedup(spark, datasets=("WKV",), ks=(3,))
    row = df.iloc[0]
    assert row["k"] == 3
    assert row["TDB_size"] == row["TDB+_size"] == row["TDB++_size"]
    assert row["TDB_ops"] >= row["TDB+_ops"]
