"""Wall time normalised by a reference kernel run alongside the work.

A shared 2-vCPU virtual machine (Xeon, 2.1 GHz) was measured slowing
down by 20-60% for minutes at a time while its neighbours were busy; a
pure-Python loop slows by about the same factor as the solvers. Medians
within one run cannot remove a slow spell that covers the whole run. So
the run interleaves a fixed reference kernel, which shares no code with
planarflow, right before and after each timed solve and each instance's
set-up; after a long set-up it runs often enough to take about
REFERENCE_SHARE of that time. A time is scaled by REFERENCE_S over the
kernel time measured around it: seconds on a machine on which the
kernel takes exactly REFERENCE_S.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

REFERENCE_S = 0.010
REFERENCE_SHARE = 0.05


def reference_kernel() -> float:
    """Seconds for a fixed graph workload: build adjacency, then BFS."""
    t0 = perf_counter()
    n = 30
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if j + 1 < n:
                edges.append((v, v + 1))
            if i + 1 < n:
                edges.append((v, v + n))
    rotations = [[] for _ in range(n * n)]
    for e, (u, v) in enumerate(edges):
        rotations[u].append(2 * e)
        rotations[v].append(2 * e + 1)
    heads = [w for u, v in edges for w in (v, u)]
    cap = [(d * 7919) % 13 for d in range(len(heads))]
    flow = [0] * len(cap)
    for s in range(0, n * n, 40):
        level = [-1] * (n * n)
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for d in rotations[v]:
                if cap[d] - flow[d] + flow[d ^ 1] > 0:
                    w = heads[d]
                    if level[w] < 0:
                        level[w] = level[v] + 1
                        queue.append(w)
        flow[rotations[s][0]] += len({v for v in range(n * n) if level[v] >= 0}) % 2
    return perf_counter() - t0
