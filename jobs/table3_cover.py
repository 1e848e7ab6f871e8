"""spark-submit entrypoint reproducing Table III (cover size + runtime,
k=5, DARC-DV vs BUR+ vs TDB++; BUR+ DNF on the large tier).

Usage: ``python jobs/table3_cover.py [DATASET ...]``

Each row is written to ``results/table3_k5_rows.csv`` as it finishes,
replacing that dataset's earlier row (a long run that dies keeps its
completed rows; rerun the missing datasets), and the table is rewritten
to ``results/table3_k5.csv`` after every row.
"""
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import RESULTS, emit, get_spark  # noqa: E402

import pandas as pd  # noqa: E402

from repro.graphgen.registry import DATASETS  # noqa: E402
from repro.tables.table3 import run_table3  # noqa: E402


def int_sizes(rows: pd.DataFrame) -> pd.DataFrame:
    """``rows`` with every ``*_size`` column as nullable ``Int64``, so a
    DNF (NA) does not turn the other rows' sizes into floats."""
    return rows.astype({c: "Int64" for c in rows.columns
                        if c.endswith("_size")})


def read_rows(path: Path) -> pd.DataFrame:
    return int_sizes(pd.read_csv(path))


def save_row(rows_path: Path, row: pd.DataFrame) -> pd.DataFrame:
    """Write one dataset's ``row`` into the row file, replacing any
    earlier row of that dataset; returns the file's rows."""
    rows = int_sizes(row)
    if rows_path.exists():
        old = read_rows(rows_path)
        rows = int_sizes(pd.concat([old[~old.dataset.isin(row.dataset)],
                                    rows], ignore_index=True))
    rows.to_csv(rows_path, index=False)
    return rows


def main() -> None:
    spark = get_spark("table3")
    datasets = sys.argv[1:] or list(DATASETS)
    k = 5  # the paper's Table III hop bound
    RESULTS.mkdir(exist_ok=True)
    rows_path = RESULTS / f"table3_k{k}_rows.csv"
    for name in datasets:
        try:
            row = run_table3(spark, k=k, datasets=[name])
        except Exception:
            print(f"[table3] {name} FAILED:", file=sys.stderr)
            traceback.print_exc()
            continue
        rows = save_row(rows_path, row)
        print(row.to_string(index=False))
        rows.to_csv(RESULTS / f"table3_k{k}.csv", index=False)
    emit(read_rows(RESULTS / f"table3_k{k}.csv"), f"table3_k{k}")
    spark.stop()


if __name__ == "__main__":
    main()
