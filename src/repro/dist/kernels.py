"""Per-component cover kernels executed inside Spark tasks.

``applyInPandas`` ships each component's edge frame to an executor; the
kernel rebuilds a CSR graph and, for the TDB family only, keeps the edges
inside one SCC (:attr:`~repro.graph.csr.CSRGraph.intra_scc_graph`; the
baselines run the graph as given, per DESIGN's Table III protocol). It
then runs the requested algorithm and returns cover rows plus one
per-component stats row (``vertex`` NULL) carrying kernel seconds / op
count / finished flag.
"""
from __future__ import annotations

import sys
import time
import zipimport

import numpy as np
import pandas as pd

from ..core.bottom_up import bottom_up
from ..core.darc import darc_dv
from ..core.engine import OpBudget
from ..core.minimal import bur_plus
from ..core.top_down import top_down
from ..graph.csr import CSRGraph

# Bound to None only so ``perfbench/spans.py``, which looks these names up
# with ``getattr`` to wrap them, keeps working. Nothing calls them.
nontrivial_scc_mask = restrict_to_short_walk_edges = None

KERNEL_SCHEMA = ("vertex BIGINT, comp BIGINT, seconds DOUBLE, ops BIGINT, "
                 "finished BOOLEAN")

ALGORITHMS = ("bur", "bur+", "tdb", "tdb+", "tdb++", "darc-dv")


def run_algorithm(g: CSRGraph, algorithm: str, k: int, *,
                  allow_two_cycles: bool = False,
                  op_budget: int | None = None):
    """Dispatch one cover algorithm on a CSR graph (used by tests too)."""
    budget = OpBudget(op_budget)
    if algorithm == "bur":
        return bottom_up(g, k, allow_two_cycles=allow_two_cycles,
                         budget=budget)
    if algorithm == "bur+":
        return bur_plus(g, k, allow_two_cycles=allow_two_cycles,
                        budget=budget)
    if algorithm in ("tdb", "tdb+", "tdb++"):
        return top_down(g, k, technique=algorithm,
                        allow_two_cycles=allow_two_cycles, budget=budget)
    if algorithm == "darc-dv":
        return darc_dv(g, k, allow_two_cycles=allow_two_cycles,
                       budget=budget)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def forget_zip_finders() -> None:
    """Drop every cached ``zipimporter`` from ``sys.path_importer_cache``.

    A Spark Python worker imports pyspark and py4j from zip archives, and
    before every task pyspark calls ``importlib.invalidate_caches()``, which
    makes each cached zip finder re-read its whole archive directory. A
    task body that calls this first leaves the next task nothing to
    re-read; the import system rebuilds a finder from ``sys.path_hooks``
    the next time it needs one.
    """
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items()
                 if isinstance(f, zipimport.zipimporter)]:
        del cache[path]


def solve_component(pdf: pd.DataFrame, *, algorithm: str, k: int,
                    allow_two_cycles: bool = False,
                    op_budget: int | None = None) -> pd.DataFrame:
    """The applyInPandas kernel body: one component in, cover+stats out."""
    forget_zip_finders()
    comp = int(pdf["comp"].iloc[0]) if len(pdf) else -1
    t0 = time.perf_counter()
    g = CSRGraph.from_edges(pdf)
    # Only the TDB family reduces its graph, inside its measured time; the
    # baselines run the graph as published (the paper did the same). The
    # TDB degree order is taken on the reduced graph, so within each SCC it
    # is the same however the edges reached the kernel (duplicated, with
    # self-loops, in any partition order, or in any group that holds the
    # whole SCC), and so are the cover and the op count. A k-aware deletion
    # upstream (a k-hop prefilter, a short-walk restrict) would remove
    # intra-SCC edges and move both; none runs.
    if algorithm.startswith("tdb"):
        g = g.intra_scc_graph
    res = run_algorithm(g, algorithm, k, allow_two_cycles=allow_two_cycles,
                        op_budget=op_budget)
    seconds = time.perf_counter() - t0
    rows = pd.DataFrame({
        "vertex": pd.array(res.cover, dtype="Int64"),
        "comp": comp, "seconds": np.nan, "ops": pd.array([0] * res.size,
                                                         dtype="Int64"),
        "finished": res.finished,
    })
    stat = pd.DataFrame({
        "vertex": pd.array([None], dtype="Int64"), "comp": [comp],
        "seconds": [seconds], "ops": pd.array([res.ops], dtype="Int64"),
        "finished": [res.finished],
    })
    return pd.concat([rows, stat], ignore_index=True)
