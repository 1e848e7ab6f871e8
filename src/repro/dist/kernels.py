"""Per-component cover kernels executed inside Spark tasks.

``applyInPandas`` ships each strongly-connected component's edge frame to
an executor; the kernel rebuilds a CSR graph and, for the TDB family only,
restricts it to the constrained-cycle region (sound: the rest is on no
cycle; the baselines run the graph as given, per DESIGN's Table III
protocol). It then runs the requested algorithm and returns cover rows
plus one per-component stats row (``vertex`` NULL) carrying kernel
seconds / op count / finished flag.
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
from ..graph.bulk_bfs import restrict_to_short_walk_edges
from ..graph.csr import CSRGraph
from ..graph.tarjan import nontrivial_scc_mask

KERNEL_SCHEMA = ("vertex BIGINT, comp BIGINT, seconds DOUBLE, ops BIGINT, "
                 "finished BOOLEAN")

ALGORITHMS = ("bur", "bur+", "tdb", "tdb+", "tdb++", "darc-dv")


def run_algorithm(g: CSRGraph, algorithm: str, k: int, *,
                  allow_two_cycles: bool = False, order: str = "degree",
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
        return top_down(g, k, technique=algorithm, order=order,
                        allow_two_cycles=allow_two_cycles, budget=budget)
    if algorithm == "darc-dv":
        return darc_dv(g, k, allow_two_cycles=allow_two_cycles,
                       budget=budget)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def restrict_to_cycle_region(g: CSRGraph, allow_two_cycles: bool,
                             k: int | None = None) -> CSRGraph:
    """Label-preserving sub-CSR that keeps the constrained-cycle region.

    Two sound, cycle-preserving reductions: (1) drop vertices outside
    non-trivial SCCs; (2) with a hop bound, drop edges on no closed walk
    of length <= k (the bulk form of the paper's BFS filter).
    :func:`solve_component` applies them to the TDB family only, inside
    its measured time.
    """
    mask = nontrivial_scc_mask(g, allow_two_cycles=allow_two_cycles)
    if not mask.all():
        edges = g.edge_array()
        keep = mask[edges[:, 0]] & mask[edges[:, 1]]
        sub = edges[keep]
        g = CSRGraph.from_edges(
            np.column_stack([g.vertex_ids[sub[:, 0]],
                             g.vertex_ids[sub[:, 1]]]))
    if k is not None:
        g = restrict_to_short_walk_edges(g, k)
    return g


def solve_component(pdf: pd.DataFrame, *, algorithm: str, k: int,
                    allow_two_cycles: bool = False, order: str = "degree",
                    op_budget: int | None = None,
                    restrict: bool = True) -> pd.DataFrame:
    """The applyInPandas kernel body: one component in, cover+stats out.

    ``restrict=False`` skips the TDB family's in-kernel reductions (used
    by the technique-speedup study)."""
    comp = int(pdf["comp"].iloc[0]) if len(pdf) else -1
    t0 = time.perf_counter()
    g = CSRGraph.from_edges(pdf)
    # The trim/SCC/short-walk reductions belong to the *top-down method*
    # (they are the bulk form of its §VI-E BFS filter), so only the TDB
    # family gets them — and pays for them inside its measured time. The
    # baselines run the graph as published (the paper did the same).
    if restrict and algorithm.startswith("tdb"):
        g = restrict_to_cycle_region(g, allow_two_cycles, k)
    res = run_algorithm(g, algorithm, k, allow_two_cycles=allow_two_cycles,
                        order=order, op_budget=op_budget)
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
