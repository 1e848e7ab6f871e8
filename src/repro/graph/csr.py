"""Compressed-sparse-row adjacency for the sequential search kernels.

The distributed layer hands components to executors as pandas edge frames;
:class:`CSRGraph` is the in-process representation those kernels run on.
Vertices are relabelled to ``0..n-1``; ``vertex_ids`` maps back to the
original labels so covers can be re-joined to the Spark world.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd


@dataclass
class CSRGraph:
    """Directed graph in CSR form, out-direction only.

    ``indptr_out[v]:indptr_out[v+1]`` slices ``indices_out`` to the
    out-neighbors of ``v`` (sorted). ``out_lists[v]`` holds the same
    neighbors as a Python list of ints, which is much cheaper per element
    than a numpy slice: the block DFS (``core/blocks.py``), the BFS filter,
    Tarjan and the brute-force oracle iterate those lists, and DARC
    searches a copy of them. The whole-array steps (degrees,
    ``edge_array``) use the arrays. ``in_lists`` (the in-neighbors, for
    the BFS filter's backward side) is built on first use, so the kernels
    without the filter never pay for it.
    """

    n: int
    m: int
    indptr_out: np.ndarray
    indices_out: np.ndarray
    vertex_ids: np.ndarray  # local index -> original label
    out_lists: list[list[int]]

    @classmethod
    def from_edges(cls, edges) -> "CSRGraph":
        """Build from an ``(m, 2)`` array / DataFrame of ``src, dst`` labels.

        Deduplicates edges and drops self-loops (the paper's problem
        statement excludes self-loops outright).
        """
        if isinstance(edges, pd.DataFrame):
            arr = edges[["src", "dst"]].to_numpy(dtype=np.int64, copy=True)
        else:
            arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        arr = arr[arr[:, 0] != arr[:, 1]]
        labels = np.unique(arr)
        n = len(labels)
        src = np.searchsorted(labels, arr[:, 0])
        dst = np.searchsorted(labels, arr[:, 1])
        # dedup on the relabelled pairs
        key = src.astype(np.int64) * n + dst
        _, keep = np.unique(key, return_index=True)
        src, dst = src[keep], dst[keep]
        order = np.lexsort((dst, src))
        indices_out = dst[order].astype(np.int64)
        indptr_out = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr_out[1:])
        return cls(n, len(indices_out), indptr_out, indices_out, labels,
                   _split(indices_out, indptr_out))

    def edge_subgraph(self, keep: np.ndarray) -> "CSRGraph":
        """The graph on the edges flagged in ``keep`` (a mask over
        ``edge_array()``), with its vertices relabelled ``0..n'-1`` by
        their rank here.

        The rank keeps the labels sorted and the kept edges in CSR order,
        so this equals ``from_edges`` on the kept labelled edges without
        its sort, dedup and self-loop passes.
        """
        src = self._sources()[keep]
        dst = self.indices_out[keep]
        used = np.zeros(self.n, dtype=bool)
        used[src] = used[dst] = True
        rank = np.cumsum(used) - 1
        n = int(used.sum())
        indices_out = rank[dst]
        indptr_out = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rank[src], minlength=n), out=indptr_out[1:])
        return CSRGraph(n, len(indices_out), indptr_out, indices_out,
                        self.vertex_ids[used],
                        _split(indices_out, indptr_out))

    @cached_property
    def in_lists(self) -> list[list[int]]:
        """``in_lists[v]``: the in-neighbors of ``v``, sorted, as Python
        lists (the transpose of ``out_lists``)."""
        order = np.argsort(self.indices_out, kind="stable")
        return _split(self._sources()[order],
                      np.concatenate(([0], np.cumsum(self.in_degrees()))))

    # -- accessors ---------------------------------------------------------
    def out_neighbors(self, v: int) -> list[int]:
        return self.out_lists[v]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr_out)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.indices_out, minlength=self.n)

    def total_degrees(self) -> np.ndarray:
        return self.out_degrees() + self.in_degrees()

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.out_lists[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def edge_array(self) -> np.ndarray:
        """Return the ``(m, 2)`` local-index edge list in CSR order."""
        return np.column_stack([self._sources(), self.indices_out])

    def _sources(self) -> np.ndarray:
        """The tail of every edge, in CSR order."""
        return np.repeat(np.arange(self.n), self.out_degrees())

    def to_labels(self, local: np.ndarray | list) -> np.ndarray:
        return self.vertex_ids[np.asarray(local, dtype=np.int64)]


def _split(flat: np.ndarray, indptr: np.ndarray) -> list[list[int]]:
    """One Python list per vertex: ``flat[indptr[v]:indptr[v + 1]]``."""
    flat, ptr = flat.tolist(), indptr.tolist()
    return [flat[ptr[v]:ptr[v + 1]] for v in range(len(ptr) - 1)]
