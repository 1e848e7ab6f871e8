"""The host's momentary speed, from a fixed pure-Python reference probe.

On a shared host the same pure-Python work runs up to twice as slow from
one second to the next, and runs made minutes apart differ by a fifth or
more whichever statistic a run reports. The slowdown hits interpreted
code in one process alike: timed back to back, a cover check and this
probe correlate at 0.8 repetition by repetition. So each check the
benchmark times in-process is bracketed by readings, and its seconds are
rescaled to the speed at which a reading takes ``REF_S``:

    rescaled = raw * REF_S / mean(reading before, reading after)

The probe is a k-bounded BFS over a fixed random graph, written here in
plain Python, so no change to the program can change it.
"""
from __future__ import annotations

import random
import statistics
import time
from collections import deque

# About the fastest reading on a 4-core Intel Xeon VM at 2.1 GHz; the
# rescaled seconds are those a piece takes on that VM when it runs fast.
REF_S = 0.020
PROBES = 3       # probes per reading; the reading is their median
_N, _M, _SEED = 4000, 20000, 7
_SOURCES = range(0, _N, 80)
_HOPS = 5


def _graph() -> list[list[int]]:
    rng = random.Random(_SEED)
    adj: list[list[int]] = [[] for _ in range(_N)]
    for _ in range(_M):
        adj[rng.randrange(_N)].append(rng.randrange(_N))
    return adj


def _probe(adj) -> None:
    for s in _SOURCES:
        depth = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            d = depth[u]
            if d == _HOPS:
                continue
            for v in adj[u]:
                if v not in depth:
                    depth[v] = d + 1
                    queue.append(v)


class Speed:
    """Probe readings of one run; ``readings`` keeps them all."""

    def __init__(self):
        self._adj = _graph()
        self.readings: list[float] = []

    def read(self) -> float:
        """Median seconds of ``PROBES`` probes, taken now."""
        times = []
        for _ in range(PROBES):
            t0 = time.perf_counter()
            _probe(self._adj)
            times.append(time.perf_counter() - t0)
        self.readings.append(statistics.median(times))
        return self.readings[-1]

    @staticmethod
    def scale(raw_s: float, before: float, after: float) -> float:
        """``raw_s`` at the reference speed, given the readings around it."""
        return raw_s * REF_S * 2 / (before + after)
