"""Per-component cover kernels executed inside Spark tasks.

``applyInPandas`` ships each component's edge frame to an executor; the
kernel rebuilds a CSR graph and, for the TDB family only, keeps the edges
inside one SCC (:func:`intra_scc_graph`; the baselines run the graph as
given, per DESIGN's Table III protocol). It then runs the requested
algorithm and returns cover rows plus one per-component stats row
(``vertex`` NULL) carrying kernel seconds / op count / finished flag.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from ..core.bottom_up import bottom_up
from ..core.darc import darc_dv
from ..core.engine import OpBudget
from ..core.minimal import bur_plus
from ..core.top_down import top_down
from ..graph.csr import CSRGraph
from ..graph.tarjan import scc_edge_mask
# Neither is called here. ``perfbench/spans.py`` looks both names up with
# ``getattr`` to wrap them, so one stays imported and the other is bound to
# None (its module is deleted).
from ..graph.tarjan import nontrivial_scc_mask  # noqa: F401
restrict_to_short_walk_edges = None

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


def intra_scc_graph(g: CSRGraph) -> CSRGraph:
    """The TDB kernels' graph: the edges of ``g`` inside one SCC (``g``
    itself if that is every edge).

    This is the only Tarjan pass on the cover path. The TDB degree order
    is taken on this graph, so within each SCC it is the same whether
    ``g`` is a raw ``single_group`` frame or one of ``prepare_graph``'s
    weak components, and so are the cover and the op count. Any upstream
    deletion that keeps every intra-SCC edge leaves the result unchanged.
    A k-aware deletion (a k-hop prefilter, a short-walk restrict) does
    not: it removes intra-SCC edges, which moves the degree order and so
    the cover. No such deletion runs upstream of the kernels, and none may
    without giving up that equality.
    """
    inside = scc_edge_mask(g)
    if inside.all():
        return g
    return CSRGraph.from_edges(g.vertex_ids[g.edge_array()[inside]])


def solve_component(pdf: pd.DataFrame, *, algorithm: str, k: int,
                    allow_two_cycles: bool = False,
                    op_budget: int | None = None) -> pd.DataFrame:
    """The applyInPandas kernel body: one component in, cover+stats out."""
    comp = int(pdf["comp"].iloc[0]) if len(pdf) else -1
    t0 = time.perf_counter()
    g = CSRGraph.from_edges(pdf)
    # Only the TDB family reduces its graph, inside its measured time; the
    # baselines run the graph as published (the paper did the same).
    if algorithm.startswith("tdb"):
        g = intra_scc_graph(g)
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
