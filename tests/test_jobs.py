"""The spark-submit entrypoints stay importable/compilable.

Jobs own their SparkSession lifecycle (they call ``spark.stop()``), so
they are not *run* inside the shared-fixture test session — the full runs
are recorded in EXPERIMENTS.md. Here we compile them and check the wiring
that does not need Spark.
"""
import importlib.util
import py_compile
from pathlib import Path

import pandas as pd
import pytest

JOBS = sorted((Path(__file__).resolve().parent.parent / "jobs")
              .glob("*.py"))


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_expected_jobs_exist():
    names = {p.name for p in JOBS}
    assert {"table2_stats.py", "table3_cover.py", "table4_two_cycles.py",
            "speedup.py", "_common.py"} <= names


def load_job(name: str):
    spec = importlib.util.spec_from_file_location(
        name, JOBS[0].parent / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_emit_writes_csv(tmp_path, monkeypatch):
    mod = load_job("_common")
    monkeypatch.setattr(mod, "RESULTS", tmp_path)
    mod.emit(pd.DataFrame({"a": [1]}), "x")
    assert (tmp_path / "x.csv").read_text().startswith("a")


def test_table3_rerun_replaces_dataset_row(tmp_path):
    save_row = load_job("table3_cover").save_row
    path = tmp_path / "rows.csv"
    save_row(path, pd.DataFrame({"dataset": ["WKV"], "size": [1]}))
    save_row(path, pd.DataFrame({"dataset": ["GNU"], "size": [2]}))
    rows = save_row(path, pd.DataFrame({"dataset": ["WKV"], "size": [3]}))
    on_disk = pd.read_csv(path)
    assert on_disk.equals(rows)
    assert sorted(zip(on_disk.dataset, on_disk["size"])) == [("GNU", 2),
                                                           ("WKV", 3)]


def test_table3_sizes_stay_integers_beside_a_dnf(tmp_path):
    job = load_job("table3_cover")
    path = tmp_path / "rows.csv"
    job.save_row(path, pd.DataFrame({"dataset": ["WKV"], "A_size": [115],
                                     "A_s": [0.5]}))
    dnf = float("nan")
    rows = job.save_row(path, pd.DataFrame({"dataset": ["FLK"],
                                            "A_size": [dnf], "A_s": [dnf]}))
    assert path.read_text().splitlines() == [
        "dataset,A_size,A_s", "WKV,115,0.5", "FLK,,"]
    on_disk = job.read_rows(path)
    assert str(on_disk.A_size.dtype) == "Int64"
    assert on_disk.equals(rows)
    assert on_disk.A_size.tolist()[0] == 115
    assert on_disk.A_size.isna().tolist() == [False, True]
