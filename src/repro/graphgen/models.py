"""Deterministic synthetic directed-graph models.

Two families cover the paper's dataset zoo (§VII-A, Table II):

* :func:`powerlaw_digraph` — directed Chung-Lu: endpoint probabilities
  proportional to ``rank^(-1/(gamma-1))``, giving a power-law degree
  distribution with exponent ``gamma`` (social/web/citation graphs);
* :func:`uniform_digraph` — Erdős–Rényi style uniform endpoints
  (Gnutella-like p2p overlays).

Both expose ``reciprocity``: the fraction of base edges whose reverse is
also inserted. Reciprocity controls the 2-cycle density — the knob behind
the paper's Table IV with/without-2-cycle ratios.

All generation is numpy-vectorized and deterministic in ``seed``; outputs
are pandas frames with ``src``/``dst`` int64 columns, no self-loops, no
duplicate edges (the graph normal form used across the repo).
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _finalize(src: np.ndarray, dst: np.ndarray, m_target: int,
              reciprocity: float, rng: np.random.Generator) -> pd.DataFrame:
    """Drop self-loops/dups, trim to ~m_target base edges, add reciprocal
    edges for a ``reciprocity`` fraction, dedup again."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    n_hint = int(max(src.max(initial=0), dst.max(initial=0))) + 1
    key = src.astype(np.int64) * n_hint + dst
    _, idx = np.unique(key, return_index=True)
    idx = np.sort(idx)  # preserve sampling order for determinism
    src, dst = src[idx], dst[idx]
    base = max(1, int(round(m_target / (1.0 + reciprocity))))
    src, dst = src[:base], dst[:base]
    if reciprocity > 0 and len(src) > 0:
        n_rec = int(round(reciprocity * len(src)))
        pick = rng.choice(len(src), size=min(n_rec, len(src)), replace=False)
        rev_src, rev_dst = dst[pick].copy(), src[pick].copy()
        src = np.concatenate([src, rev_src])
        dst = np.concatenate([dst, rev_dst])
    key = src.astype(np.int64) * n_hint + dst
    _, idx = np.unique(key, return_index=True)
    idx = np.sort(idx)
    out = pd.DataFrame({"src": src[idx].astype(np.int64),
                        "dst": dst[idx].astype(np.int64)})
    return out[out.src != out.dst].reset_index(drop=True)


def powerlaw_digraph(n: int, m: int, *, gamma: float = 2.3,
                     reciprocity: float = 0.0, forward_frac: float = 0.0,
                     seed: int = 0) -> pd.DataFrame:
    """Directed Chung-Lu graph with ~``m`` edges over ``n`` vertices.

    ``forward_frac`` orients that fraction of the sampled edges along a
    hidden random total order (low rank -> high rank). Large values give
    the hierarchical, mostly-acyclic bulk of real web/social crawls whose
    k-bounded DFS cost explodes while the cyclic core stays small — the
    regime where the paper's large-tier baselines die (Table III "-").
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (gamma - 1.0))
    w /= w.sum()
    # oversample to survive dedup/self-loop losses
    s = int(m * 1.6) + 32
    src = rng.choice(n, size=s, p=w)
    dst = rng.choice(n, size=s, p=w)
    # decouple hub identities a little: permute the in-side labels
    perm = rng.permutation(n)
    dst = perm[dst]
    if forward_frac > 0:
        hidden = rng.permutation(n)  # hidden[v] = rank of v
        fwd = rng.random(s) < forward_frac
        flip = fwd & (hidden[src] > hidden[dst])
        src[flip], dst[flip] = dst[flip].copy(), src[flip].copy()
    return _finalize(src, dst, m, reciprocity, rng)


def hierarchical_digraph(n: int, m: int, *, gamma: float = 2.3,
                         core_frac: float = 0.15,
                         core_m_frac: float = 0.15,
                         core_reciprocity: float = 0.3,
                         seed: int = 0) -> pd.DataFrame:
    """Large-crawl analog: a dense *acyclic* power-law bulk plus a cyclic
    core.

    * bulk (``(1-core_m_frac)·m`` edges over all ``n`` vertices):
      Chung-Lu endpoints, every edge oriented along a hidden random total
      order — a dense DAG. This is the region where plain k-bounded DFS
      (BUR's FindCycle) explodes combinatorially while SCC/trim/BFS-filter
      dismiss it in linear time — the regime behind the paper's large-tier
      "-" cells.
    * core (``core_m_frac·m`` edges over a random ``core_frac·n`` vertex
      subset): a reciprocated power-law digraph carrying the constrained
      cycles. Core edges ignore the hidden order, so some cycles also
      thread through bulk paths (realistic, and keeps the core connected
      to the bulk).
    """
    rng = np.random.default_rng(seed)
    m_core = int(m * core_m_frac)
    m_bulk = m - m_core
    bulk = powerlaw_digraph(n, m_bulk, gamma=gamma, reciprocity=0.0,
                            forward_frac=1.0, seed=seed + 1)
    n_core = max(3, int(n * core_frac))
    core_ids = rng.choice(n, size=n_core, replace=False)
    core = powerlaw_digraph(n_core, m_core, gamma=gamma,
                            reciprocity=core_reciprocity, seed=seed + 2)
    core = pd.DataFrame({"src": core_ids[core.src.to_numpy()],
                         "dst": core_ids[core.dst.to_numpy()]})
    out = pd.concat([bulk, core], ignore_index=True)
    out = out[out.src != out.dst].drop_duplicates(["src", "dst"])
    return out.reset_index(drop=True)


def uniform_digraph(n: int, m: int, *, reciprocity: float = 0.0,
                    seed: int = 0) -> pd.DataFrame:
    """Uniform-endpoint digraph with ~``m`` edges over ``n`` vertices."""
    rng = np.random.default_rng(seed)
    s = int(m * 1.4) + 32
    src = rng.integers(0, n, size=s)
    dst = rng.integers(0, n, size=s)
    return _finalize(src.astype(np.int64), dst.astype(np.int64), m,
                     reciprocity, rng)
