"""DARC / DARC-DV (Algorithms 1-3 on the implicit line graph)."""
import numpy as np
import pytest

from repro.core.brute import all_simple_cycles, is_cover
from repro.core.darc import darc_dv
from repro.core.engine import OpBudget
from repro.core.verify import check_feasible
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def local_cover(g, res):
    idx = {int(l): i for i, l in enumerate(g.vertex_ids)}
    return {idx[int(v)] for v in res.cover}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("allow2", [False, True])
def test_feasible_on_random(seed, k, allow2):
    g = CSRGraph.from_edges(uniform_digraph(13, 40, reciprocity=0.4,
                                            seed=seed))
    if g.n == 0:
        return
    res = darc_dv(g, k, allow_two_cycles=allow2)
    assert res.finished
    lo = 2 if allow2 else 3
    assert is_cover(all_simple_cycles(g, lo, k), local_cover(g, res))
    ok, wit = check_feasible(g, res.cover, k, allow_two_cycles=allow2)
    assert ok, wit


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_blocked_equals_plain(seed, k):
    """Block pruning must not change the result, only the work."""
    g = CSRGraph.from_edges(powerlaw_digraph(14, 50, reciprocity=0.5,
                                             seed=seed))
    if g.n == 0:
        return
    a = darc_dv(g, k, blocked=True)
    b = darc_dv(g, k, blocked=False)
    assert a.cover_set() == b.cover_set()
    # the whole S/W/P evolution is the same, not just the projected cover
    assert a.extra == b.extra
    assert a.ops <= b.ops  # pruning never does more work


def test_triangle_single_vertex():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    res = darc_dv(g, 3)
    assert res.size == 1


def test_acyclic_empty():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    assert darc_dv(g, 5).size == 0


def test_two_cycles_not_covered_by_default():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    assert darc_dv(g, 5).size == 0
    assert darc_dv(g, 5, allow_two_cycles=True).size >= 1


def test_k_too_small():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    assert darc_dv(g, 2).size == 0


def test_budget_dnf_flagged():
    g = CSRGraph.from_edges(powerlaw_digraph(40, 200, reciprocity=0.3,
                                             seed=2))
    res = darc_dv(g, 5, budget=OpBudget(100))
    assert not res.finished


def test_figure_eight_covers_both_lobes():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0],
                                      [0, 3], [3, 4], [4, 0]]))
    res = darc_dv(g, 3)
    cov = local_cover(g, res)
    assert is_cover(all_simple_cycles(g, 3, 3), cov)


def _reference_graph(kind, seed):
    if kind == "uniform":
        edges = uniform_digraph(13, 40, reciprocity=0.4, seed=seed)
    else:
        edges = powerlaw_digraph(30, 110, reciprocity=0.4, seed=seed)
    return CSRGraph.from_edges(edges)


# (kind, seed, k, allow_two_cycles) ->
#     (sorted cover, ops, edges_in_S, recorded_cycles, projected_size)
REFERENCE = {
    ("uniform", 0, 3, False): (
        [8, 9, 10], 1093, 7, 7, 5),
    ("uniform", 0, 3, True): (
        [2, 6, 7, 8, 9, 10, 11, 12], 1184, 19, 19, 8),
    ("uniform", 0, 4, False): (
        [8, 9, 10], 1728, 10, 9, 8),
    ("uniform", 0, 4, True): (
        [2, 6, 7, 8, 9, 10, 11, 12], 1869, 22, 21, 12),
    ("uniform", 0, 5, False): (
        [8, 9, 10], 2542, 12, 8, 7),
    ("uniform", 0, 5, True): (
        [2, 6, 7, 8, 9, 10, 11, 12], 2764, 24, 20, 11),
    ("uniform", 1, 3, False): (
        [6, 7, 10], 1490, 6, 6, 4),
    ("uniform", 1, 3, True): (
        [4, 6, 7, 8, 10, 11, 12], 1565, 21, 21, 8),
    ("uniform", 1, 4, False): (
        [6, 9, 10, 11], 2288, 12, 12, 9),
    ("uniform", 1, 4, True): (
        [4, 6, 7, 8, 10, 11, 12], 2473, 27, 27, 10),
    ("uniform", 1, 5, False): (
        [1, 8, 9, 11, 12], 3020, 15, 11, 10),
    ("uniform", 1, 5, True): (
        [4, 6, 7, 8, 10, 11, 12], 3053, 30, 26, 12),
    ("uniform", 2, 3, False): (
        [5, 8, 11, 12], 1130, 8, 8, 5),
    ("uniform", 2, 3, True): (
        [4, 5, 7, 8, 9, 11, 12], 1175, 20, 20, 9),
    ("uniform", 2, 4, False): (
        [2, 5, 10, 11], 1788, 11, 10, 6),
    ("uniform", 2, 4, True): (
        [4, 5, 7, 8, 9, 11, 12], 1823, 23, 22, 10),
    ("uniform", 2, 5, False): (
        [2, 7, 9, 10], 2622, 11, 8, 8),
    ("uniform", 2, 5, True): (
        [4, 5, 7, 8, 9, 11, 12], 2733, 23, 20, 10),
    ("uniform", 3, 3, False): (
        [3, 5, 8], 1250, 9, 9, 5),
    ("uniform", 3, 3, True): (
        [3, 4, 5, 7, 8, 11, 12], 1336, 21, 21, 8),
    ("uniform", 3, 4, False): (
        [3, 4, 5], 1725, 13, 13, 8),
    ("uniform", 3, 4, True): (
        [3, 4, 5, 7, 8, 11, 12], 1914, 25, 25, 10),
    ("uniform", 3, 5, False): (
        [3, 4, 5], 2354, 14, 12, 8),
    ("uniform", 3, 5, True): (
        [3, 4, 5, 7, 8, 11, 12], 2553, 26, 24, 10),
    ("uniform", 4, 3, False): (
        [4, 7, 9, 12], 1597, 8, 8, 5),
    ("uniform", 4, 3, True): (
        [2, 3, 5, 7, 9, 12], 1620, 20, 20, 8),
    ("uniform", 4, 4, False): (
        [4, 6, 12], 2208, 15, 15, 10),
    ("uniform", 4, 4, True): (
        [2, 3, 5, 7, 9, 12], 2312, 27, 27, 11),
    ("uniform", 4, 5, False): (
        [3, 4, 6, 12], 2818, 18, 14, 10),
    ("uniform", 4, 5, True): (
        [2, 3, 5, 7, 9, 12], 2884, 30, 26, 11),
    ("uniform", 5, 3, False): (
        [4, 8], 1277, 7, 7, 4),
    ("uniform", 5, 3, True): (
        [4, 5, 8, 10, 11, 12], 1317, 19, 19, 6),
    ("uniform", 5, 4, False): (
        [6, 8, 10, 12], 1871, 13, 12, 9),
    ("uniform", 5, 4, True): (
        [4, 5, 8, 10, 11, 12], 1981, 25, 24, 10),
    ("uniform", 5, 5, False): (
        [1, 3, 5, 9, 10], 2480, 13, 12, 8),
    ("uniform", 5, 5, True): (
        [4, 5, 8, 10, 11, 12], 2610, 25, 24, 11),
    ("uniform", 6, 3, False): (
        [10, 11], 1208, 3, 3, 3),
    ("uniform", 6, 3, True): (
        [1, 6, 7, 9, 10, 11, 12], 1245, 16, 16, 7),
    ("uniform", 6, 4, False): (
        [11, 12], 1824, 7, 6, 5),
    ("uniform", 6, 4, True): (
        [1, 6, 7, 9, 10, 11, 12], 1879, 20, 19, 7),
    ("uniform", 6, 5, False): (
        [1, 10, 11], 1816, 9, 9, 5),
    ("uniform", 6, 5, True): (
        [1, 6, 7, 9, 10, 11, 12], 1887, 22, 22, 7),
    ("uniform", 7, 3, False): (
        [10, 12], 1397, 3, 3, 2),
    ("uniform", 7, 3, True): (
        [4, 7, 8, 9, 10], 1467, 15, 15, 7),
    ("uniform", 7, 4, False): (
        [6, 7, 10], 2430, 10, 8, 6),
    ("uniform", 7, 4, True): (
        [4, 7, 8, 9, 10], 2551, 22, 20, 8),
    ("uniform", 7, 5, False): (
        [4, 10, 12], 2421, 15, 12, 9),
    ("uniform", 7, 5, True): (
        [4, 7, 8, 9, 10], 2576, 27, 24, 11),
    ("uniform", 8, 3, False): (
        [9, 12], 1406, 8, 8, 5),
    ("uniform", 8, 3, True): (
        [2, 4, 5, 7, 8, 9, 12], 1482, 21, 21, 10),
    ("uniform", 8, 4, False): (
        [7, 9, 12], 2476, 12, 8, 8),
    ("uniform", 8, 4, True): (
        [2, 4, 5, 7, 8, 9, 12], 2483, 25, 21, 11),
    ("uniform", 8, 5, False): (
        [4, 7, 8, 11], 2564, 15, 13, 11),
    ("uniform", 8, 5, True): (
        [2, 4, 5, 7, 8, 9, 12], 2576, 28, 26, 12),
    ("uniform", 9, 3, False): (
        [8, 10], 1062, 7, 7, 5),
    ("uniform", 9, 3, True): (
        [1, 5, 7, 8, 9, 10, 12], 1164, 19, 19, 8),
    ("uniform", 9, 4, False): (
        [0, 6], 1575, 7, 5, 5),
    ("uniform", 9, 4, True): (
        [1, 5, 7, 8, 9, 10, 12], 1703, 19, 17, 10),
    ("uniform", 9, 5, False): (
        [5, 10], 2053, 8, 5, 6),
    ("uniform", 9, 5, True): (
        [1, 5, 7, 8, 9, 10, 12], 2088, 20, 17, 10),
    ("uniform", 10, 3, False): (
        [10], 1392, 6, 6, 2),
    ("uniform", 10, 3, True): (
        [4, 5, 7, 8, 9, 10], 1451, 20, 20, 8),
    ("uniform", 10, 4, False): (
        [10, 11], 2301, 10, 8, 8),
    ("uniform", 10, 4, True): (
        [4, 5, 7, 8, 9, 10], 2323, 24, 22, 9),
    ("uniform", 10, 5, False): (
        [0, 4, 5, 12], 2690, 11, 8, 7),
    ("uniform", 10, 5, True): (
        [4, 5, 7, 8, 9, 10], 2636, 25, 22, 10),
    ("uniform", 11, 3, False): (
        [7, 10, 11], 1516, 6, 6, 5),
    ("uniform", 11, 3, True): (
        [2, 5, 6, 7, 8, 10, 11], 1592, 19, 19, 10),
    ("uniform", 11, 4, False): (
        [7, 10, 11], 2346, 10, 9, 8),
    ("uniform", 11, 4, True): (
        [2, 5, 6, 7, 8, 10, 11], 2461, 23, 22, 10),
    ("uniform", 11, 5, False): (
        [7, 10, 11], 3113, 12, 9, 7),
    ("uniform", 11, 5, True): (
        [2, 5, 6, 7, 8, 10, 11], 3274, 25, 22, 9),
    ("powerlaw", 0, 3, False): (
        [5, 6, 7, 8, 9, 11, 14, 20], 10509, 33, 33, 14),
    ("powerlaw", 0, 3, True): (
        [4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 20,
         23, 25], 11026, 64, 64, 19),
    ("powerlaw", 0, 4, False): (
        [5, 6, 7, 8, 9, 11, 14, 20], 22653, 53, 44, 19),
    ("powerlaw", 0, 4, True): (
        [4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 20,
         23, 25], 24170, 84, 75, 23),
    ("powerlaw", 0, 5, False): (
        [1, 2, 6, 7, 10, 13, 14, 15, 17, 25], 30463, 69, 49, 20),
    ("powerlaw", 0, 5, True): (
        [4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 20,
         23, 25], 33042, 100, 80, 22),
    ("powerlaw", 1, 3, False): (
        [16, 17, 18, 24], 11927, 28, 28, 11),
    ("powerlaw", 1, 3, True): (
        [2, 6, 11, 13, 15, 16, 17, 18, 22, 26, 27], 12323, 61, 61, 20),
    ("powerlaw", 1, 4, False): (
        [10, 13, 14, 16, 17, 18, 19, 27], 25455, 53, 41, 18),
    ("powerlaw", 1, 4, True): (
        [2, 6, 11, 13, 15, 16, 17, 18, 22, 26, 27], 26884, 86, 74, 22),
    ("powerlaw", 1, 5, False): (
        [14, 15, 16, 17, 18, 19, 24, 26], 37880, 60, 42, 20),
    ("powerlaw", 1, 5, True): (
        [2, 6, 11, 13, 15, 16, 17, 18, 22, 26, 27], 40420, 93, 75, 23),
    ("powerlaw", 2, 3, False): (
        [4, 5, 8, 9, 10, 26, 29], 12450, 39, 39, 14),
    ("powerlaw", 2, 3, True): (
        [2, 4, 5, 8, 9, 10, 11, 15, 21, 25, 26, 28, 29], 13268, 72, 72, 22),
    ("powerlaw", 2, 4, False): (
        [1, 4, 5, 9, 12, 18, 26], 24127, 55, 52, 16),
    ("powerlaw", 2, 4, True): (
        [2, 4, 5, 8, 9, 10, 11, 15, 21, 25, 26, 28, 29], 26006, 88, 85, 24),
    ("powerlaw", 2, 5, False): (
        [1, 4, 5, 9, 12, 18, 22, 26], 38323, 62, 51, 20),
    ("powerlaw", 2, 5, True): (
        [2, 4, 5, 8, 9, 10, 11, 15, 21, 25, 26, 28, 29], 41163, 95, 84, 25),
    ("powerlaw", 3, 3, False): (
        [9, 10, 14, 16, 19, 28], 8518, 19, 19, 10),
    ("powerlaw", 3, 3, True): (
        [3, 4, 5, 9, 10, 12, 13, 14, 15, 16, 18, 19,
         20, 23, 29], 8877, 50, 50, 18),
    ("powerlaw", 3, 4, False): (
        [3, 9, 10, 12, 13, 14, 19, 28], 17717, 33, 29, 14),
    ("powerlaw", 3, 4, True): (
        [3, 4, 5, 9, 10, 12, 13, 14, 15, 16, 18, 19,
         20, 23, 29], 18546, 64, 60, 21),
    ("powerlaw", 3, 5, False): (
        [4, 9, 10, 12, 13, 15, 16, 19, 28], 25074, 48, 33, 15),
    ("powerlaw", 3, 5, True): (
        [3, 4, 5, 9, 10, 12, 13, 14, 15, 16, 18, 19,
         20, 23, 29], 26069, 79, 64, 20),
    ("powerlaw", 4, 3, False): (
        [2, 5, 10, 13, 17, 22, 25], 9720, 20, 20, 13),
    ("powerlaw", 4, 3, True): (
        [3, 6, 7, 9, 10, 13, 14, 15, 17, 22, 25, 26,
         27, 28, 29], 10097, 53, 53, 22),
    ("powerlaw", 4, 4, False): (
        [9, 10, 13, 14, 17, 22, 26, 27, 28], 19572, 41, 39, 19),
    ("powerlaw", 4, 4, True): (
        [3, 6, 7, 9, 10, 13, 14, 15, 17, 22, 25, 26,
         27, 28, 29], 20757, 74, 72, 23),
    ("powerlaw", 4, 5, False): (
        [5, 6, 12, 17, 21, 22, 24, 25, 26, 27, 28], 30427, 55, 37, 20),
    ("powerlaw", 4, 5, True): (
        [3, 6, 7, 9, 10, 13, 14, 15, 17, 22, 25, 26,
         27, 28, 29], 31986, 88, 70, 26),
    ("powerlaw", 5, 3, False): (
        [10, 12, 13, 15, 16, 17, 19, 22, 25, 26, 29], 12285, 32, 32, 16),
    ("powerlaw", 5, 3, True): (
        [1, 3, 8, 10, 12, 13, 15, 16, 17, 19, 20, 21,
         22, 25, 26, 29], 12573, 67, 67, 18),
    ("powerlaw", 5, 4, False): (
        [10, 11, 13, 15, 17, 19, 21, 22, 25, 29], 24040, 54, 45, 20),
    ("powerlaw", 5, 4, True): (
        [1, 3, 8, 10, 12, 13, 15, 16, 17, 19, 20, 21,
         22, 25, 26, 29], 25213, 89, 80, 21),
    ("powerlaw", 5, 5, False): (
        [10, 11, 13, 15, 16, 17, 19, 21, 22, 25, 29], 35290, 68, 45, 21),
    ("powerlaw", 5, 5, True): (
        [1, 3, 8, 10, 12, 13, 15, 16, 17, 19, 20, 21,
         22, 25, 26, 29], 36869, 103, 80, 22),
    ("powerlaw", 6, 3, False): (
        [6, 11, 15, 16, 23, 26, 28], 9712, 28, 28, 13),
    ("powerlaw", 6, 3, True): (
        [3, 4, 6, 11, 12, 13, 15, 16, 18, 19, 20, 21,
         22, 23, 28], 10173, 61, 61, 21),
    ("powerlaw", 6, 4, False): (
        [4, 6, 11, 15, 16, 22, 28], 19038, 44, 38, 20),
    ("powerlaw", 6, 4, True): (
        [3, 4, 6, 11, 12, 13, 15, 16, 18, 19, 20, 21,
         22, 23, 28], 20216, 77, 71, 23),
    ("powerlaw", 6, 5, False): (
        [4, 6, 11, 15, 16, 22, 28, 29], 29013, 54, 39, 24),
    ("powerlaw", 6, 5, True): (
        [3, 4, 6, 11, 12, 13, 15, 16, 18, 19, 20, 21,
         22, 23, 28], 31274, 87, 72, 26),
    ("powerlaw", 7, 3, False): (
        [2, 5, 9, 14, 17, 22], 10567, 30, 30, 14),
    ("powerlaw", 7, 3, True): (
        [2, 4, 5, 8, 10, 13, 17, 19, 21, 22, 24, 25,
         26, 28, 29], 11166, 64, 64, 21),
    ("powerlaw", 7, 4, False): (
        [4, 5, 8, 9, 14, 17, 28, 29], 22901, 48, 39, 16),
    ("powerlaw", 7, 4, True): (
        [2, 4, 5, 8, 10, 13, 17, 19, 21, 22, 24, 25,
         26, 28, 29], 24551, 82, 73, 21),
    ("powerlaw", 7, 5, False): (
        [2, 5, 17, 19, 21, 22, 24, 28, 29], 35041, 51, 39, 21),
    ("powerlaw", 7, 5, True): (
        [2, 4, 5, 8, 10, 13, 17, 19, 21, 22, 24, 25,
         26, 28, 29], 38059, 85, 73, 23),
    ("powerlaw", 8, 3, False): (
        [3, 4, 10, 14, 20, 22], 13044, 32, 32, 13),
    ("powerlaw", 8, 3, True): (
        [3, 7, 9, 10, 11, 12, 13, 14, 16, 18, 20, 21,
         22, 25, 27, 28], 13824, 65, 65, 22),
    ("powerlaw", 8, 4, False): (
        [7, 9, 12, 13, 14, 16, 20, 21, 22, 28], 28380, 60, 48, 21),
    ("powerlaw", 8, 4, True): (
        [3, 7, 9, 10, 11, 12, 13, 14, 16, 18, 20, 21,
         22, 25, 27, 28], 29996, 93, 81, 24),
    ("powerlaw", 8, 5, False): (
        [7, 9, 10, 12, 13, 14, 16, 18, 20, 21, 22, 28], 43436, 76, 45, 21),
    ("powerlaw", 8, 5, True): (
        [3, 7, 9, 10, 11, 12, 13, 14, 16, 18, 20, 21,
         22, 25, 27, 28], 46066, 109, 78, 24),
    ("powerlaw", 9, 3, False): (
        [10, 11, 12, 17, 26], 10378, 17, 17, 10),
    ("powerlaw", 9, 3, True): (
        [1, 6, 10, 11, 16, 17, 22, 23, 24, 26, 28, 29], 10588, 49, 49, 15),
    ("powerlaw", 9, 4, False): (
        [8, 10, 12, 15, 17, 22, 26], 21201, 43, 37, 16),
    ("powerlaw", 9, 4, True): (
        [1, 6, 10, 11, 16, 17, 22, 23, 24, 26, 28, 29], 21760, 75, 69, 19),
    ("powerlaw", 9, 5, False): (
        [10, 11, 12, 15, 16, 17, 24, 26], 30144, 54, 40, 17),
    ("powerlaw", 9, 5, True): (
        [1, 6, 10, 11, 16, 17, 22, 23, 24, 26, 28, 29], 31050, 86, 72, 19),
    ("powerlaw", 10, 3, False): (
        [5, 11, 12, 17, 18, 19, 29], 10299, 29, 29, 14),
    ("powerlaw", 10, 3, True): (
        [5, 7, 8, 10, 11, 12, 13, 15, 17, 18, 19, 20,
         23, 25, 27, 29], 10878, 64, 64, 21),
    ("powerlaw", 10, 4, False): (
        [5, 8, 10, 11, 12, 17, 18, 19, 29], 23034, 50, 35, 22),
    ("powerlaw", 10, 4, True): (
        [5, 7, 8, 10, 11, 12, 13, 15, 17, 18, 19, 20,
         23, 25, 27, 29], 24312, 85, 70, 26),
    ("powerlaw", 10, 5, False): (
        [5, 8, 10, 11, 12, 17, 18, 19, 23], 31067, 62, 43, 22),
    ("powerlaw", 10, 5, True): (
        [5, 7, 8, 10, 11, 12, 13, 15, 17, 18, 19, 20,
         23, 25, 27, 29], 33140, 97, 78, 27),
    ("powerlaw", 11, 3, False): (
        [2, 7, 14, 20], 11800, 25, 25, 9),
    ("powerlaw", 11, 3, True): (
        [4, 5, 7, 11, 12, 14, 16, 17, 18, 20, 21, 22,
         23, 24, 26, 29], 12860, 57, 57, 22),
    ("powerlaw", 11, 4, False): (
        [7, 12, 14, 17, 18, 20, 23, 26], 23938, 43, 34, 18),
    ("powerlaw", 11, 4, True): (
        [4, 5, 7, 11, 12, 14, 16, 17, 18, 20, 21, 22,
         23, 24, 26, 29], 25837, 75, 66, 23),
    ("powerlaw", 11, 5, False): (
        [7, 12, 14, 17, 18, 20, 23, 26], 38148, 45, 30, 20),
    ("powerlaw", 11, 5, True): (
        [4, 5, 7, 11, 12, 14, 16, 17, 18, 20, 21, 22,
         23, 24, 26, 29], 40758, 77, 62, 23),
}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["uniform", "powerlaw"])
def test_matches_recorded_reference(kind, seed):
    """Exact DARC-DV outcomes, recorded from the nested-function search
    over numpy arrays before it moved onto Python lists. Any change to
    the DFS order, the taint/certificate logic or the op accounting
    shows up here as a different cover, op count or S/U size."""
    g = _reference_graph(kind, seed)
    for k in (3, 4, 5):
        for allow2 in (False, True):
            res = darc_dv(g, k, allow_two_cycles=allow2)
            assert res.finished
            got = (sorted(int(v) for v in res.cover), res.ops,
                   res.extra["edges_in_S"], res.extra["recorded_cycles"],
                   res.extra["projected_size"])
            assert got == REFERENCE[kind, seed, k, allow2], (k, allow2)
