"""Compressed-sparse-row adjacency for the sequential search kernels.

The distributed layer hands components to executors as pandas edge frames;
:class:`CSRGraph` is the in-process representation those kernels run on.
Vertices are relabelled to ``0..n-1``; ``vertex_ids`` maps back to the
original labels so covers can be re-joined to the Spark world.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

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
    ``edge_array``) use the arrays.
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
        flat, ptr = indices_out.tolist(), indptr_out.tolist()
        out_lists = [flat[ptr[v]:ptr[v + 1]] for v in range(n)]
        return cls(n, len(indices_out), indptr_out, indices_out,
                   labels, out_lists)

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
        src = np.repeat(np.arange(self.n), self.out_degrees())
        return np.column_stack([src, self.indices_out])

    def to_labels(self, local: np.ndarray | list) -> np.ndarray:
        return self.vertex_ids[np.asarray(local, dtype=np.int64)]
