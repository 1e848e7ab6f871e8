"""Brute-force enumeration oracles for tiny graphs.

Ground truth for the tests: enumerate *all* hop-constrained simple cycles
explicitly, then check covers/searches against that set. Exponential —
only ever called on graphs with at most a few dozen vertices.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from ..graph.csr import CSRGraph


def all_simple_cycles(g: CSRGraph, lo: int, hi: int) -> set[tuple[int, ...]]:
    """All simple cycles with length (edge count) in ``[lo, hi]``.

    Each cycle is returned once, as the tuple of its local vertex ids
    rotated so the minimum id comes first (direction preserved).
    Self-loops never appear (CSR drops them); ``lo=2`` includes 2-cycles.
    """
    out: set[tuple[int, ...]] = set()
    n = g.n
    for root in range(n):
        # Only cycles whose minimum vertex is `root`; all other path
        # vertices must therefore be > root.
        path = [root]
        on_path = np.zeros(n, dtype=bool)
        on_path[root] = True

        def dfs(u: int, depth: int) -> None:
            for w in g.out_neighbors(u):
                if w == root:
                    if lo <= depth + 1 <= hi:
                        out.add(tuple(path))
                    continue
                if w < root or on_path[w] or depth + 1 > hi - 1:
                    continue
                on_path[w] = True
                path.append(w)
                dfs(w, depth + 1)
                path.pop()
                on_path[w] = False

        dfs(root, 0)
    return out


def is_cover(cycles: set[tuple[int, ...]], cover: set[int]) -> bool:
    """True iff every enumerated cycle contains a cover vertex."""
    return all(any(v in cover for v in c) for c in cycles)


def optimal_cover_size(cycles: set[tuple[int, ...]], universe: list[int]) -> int:
    """Minimum hitting-set size over the enumerated cycles (exponential).

    ``universe`` is the candidate vertex pool (normally the union of cycle
    vertices). Used to validate the Theorem-2 reduction on tiny instances.
    """
    if not cycles:
        return 0
    verts = sorted(set(universe) & {v for c in cycles for v in c})
    for size in range(0, len(verts) + 1):
        for cand in combinations(verts, size):
            if is_cover(cycles, set(cand)):
                return size
    raise AssertionError("unreachable: full vertex set always covers")


def vertex_on_cycle(g: CSRGraph, v: int, lo: int, hi: int,
                    active: np.ndarray | None = None) -> bool:
    """True iff some simple cycle of length in [lo, hi] through ``v`` uses
    only ``active`` vertices (``v`` itself is always allowed)."""
    n = g.n
    act = np.ones(n, dtype=bool) if active is None else active
    on_path = np.zeros(n, dtype=bool)
    on_path[v] = True

    def dfs(u: int, depth: int) -> bool:
        for w in g.out_neighbors(u):
            if w == v:
                if lo <= depth + 1 <= hi:
                    return True
                continue
            if not act[w] or on_path[w] or depth + 1 > hi - 1:
                continue
            on_path[w] = True
            if dfs(w, depth + 1):
                return True
            on_path[w] = False
        return False

    return dfs(v, 0)
