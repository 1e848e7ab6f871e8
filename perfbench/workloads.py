"""Seeded inputs for the two benchmark workloads.

The graphs are the registry analogs, generated with their registry seeds.
``--seed`` then gives every vertex a new id through a seeded random
increasing map (identity at seed 0), so the same seed always gives the
same edge lists, and different seeds give the same graphs, visited in the
same order by every algorithm, under different ids: Spark's hash
partitioning and task placement change, the work does not. ``scale``
multiplies every generator's vertex and edge budget (1.0 is the benchmark
size; the smoke test runs a toy scale).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.graph.csr import CSRGraph
from repro.graph.tarjan import tarjan_scc
from repro.graphgen.registry import DATASETS

K = 5  # hop bound of every workload (the paper's Table III setting)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its inputs are made and run."""

    name: str
    mode: str               # "single": raw graph as one kernel group;
                            # "pipeline": prepare_graph first
    algorithms: dict        # dataset -> run_cover algorithms, TDB++ first
    dist_check: str | None  # dataset whose TDB++ cover the traced run
                            # also checks with distributed_check_cover
    iterations: int         # iterations an untraced run measures at least


def _generate(name: str, scale: float, frac: float = 1.0) -> pd.DataFrame:
    spec = DATASETS[name]
    return replace(spec, n=max(8, int(spec.n * frac * scale)),
                   m=max(16, int(spec.m * frac * scale))).generate()


def relabel(pdf: pd.DataFrame, seed: int) -> pd.DataFrame:
    """The same graph with new ids drawn by ``seed`` (0: unchanged).

    The map is increasing, so every algorithm still visits the vertices in
    the same order; only the id values, and with them Spark's hash
    partitioning, change."""
    if seed == 0:
        return pdf
    ids = pdf[["src", "dst"]].to_numpy()
    n = int(ids.max()) + 1
    new = np.sort(np.random.default_rng(seed).choice(4 * n, n, replace=False))
    return pd.DataFrame({"src": new[ids[:, 0]], "dst": new[ids[:, 1]]})


# Table III protocol: the WIT, GNU and EU analogs run all three
# algorithms; the FLK analog, at 1/5 of its registry size, runs TDB++ only
# (the baselines' "-" cells) and makes the in-kernel restrict + search the
# largest kernel cost, while the Spark phases stay trivial.
TABLE3_SMALL = ("WIT", "GNU", "EU")
FLK_FRAC = 0.2
# FLK-shaped giant at 1/20 plus three small-tier analogs at half size: the
# Spark phases (SCC, prefilter, trim) dominate, and there are about ten
# components for the per-component kernels.
PIPELINE_GIANT_FRAC = 0.05
PIPELINE_SMALL = ("ASC", "CT", "WND")
PIPELINE_SMALL_FRAC = 0.5

ALL = ("tdb++", "bur+", "darc-dv")
# Why each workload exists is in BENCHMARK.json and README.md. A table3
# iteration takes about 15 s and a pipeline_mixed one about 30 s; a run
# measures two and one of them.
WORKLOADS = {w.name: w for w in [
    Workload("table3", "single",
             {**{name: ALL for name in TABLE3_SMALL}, "FLK": ("tdb++",)},
             "FLK", 2),
    Workload("pipeline_mixed", "pipeline", {"MIXED": ("tdb++",)}, None, 1),
]}


def make_inputs(workload: str, seed: int, scale: float
                ) -> dict[str, pd.DataFrame]:
    """``{dataset: src/dst edge frame}`` for one workload and seed."""
    if workload == "table3":
        graphs = {name: _generate(name, scale) for name in TABLE3_SMALL}
        graphs["FLK"] = _generate("FLK", scale, FLK_FRAC)
    elif workload == "pipeline_mixed":
        parts = [_generate("FLK", scale, PIPELINE_GIANT_FRAC)]
        parts += [_generate(name, scale, PIPELINE_SMALL_FRAC)
                  for name in PIPELINE_SMALL]
        offset, shifted = 0, []  # disjoint ids
        for part in parts:
            shifted.append(part + offset)
            offset += int(part[["src", "dst"]].to_numpy().max()) + 1
        graphs = {"MIXED": pd.concat(shifted, ignore_index=True)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {name: relabel(pdf, seed) for name, pdf in graphs.items()}


def describe(pdf: pd.DataFrame) -> dict:
    """n, m, non-trivial SCC count and the largest SCC's edge count."""
    g = CSRGraph.from_edges(pdf)
    comp = tarjan_scc(g)
    e = g.edge_array()
    intra = comp[e[:, 0]] == comp[e[:, 1]]
    edges_per_comp = np.bincount(comp[e[intra, 0]], minlength=1)
    return {"n": int(g.n), "m": int(g.m),
            "components": int((edges_per_comp > 0).sum()),
            "largest_component_edges": int(edges_per_comp.max())}
