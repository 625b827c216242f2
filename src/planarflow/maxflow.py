"""Single-source, single-sink max flow over FlowState residuals.

An engine augments the state it is given, so the returned value is the
incremental flow found on top of whatever the state already carries. An
optional `limit` caps that increment: each augmenting path's bottleneck
is clamped to what is left of the limit, and the engine returns as soon
as the limit is reached. This is how the solver pushes a vertex's excess
on towards a sink. The one named engine is blocking-flow augmentation
(level graph + DFS); callers may also pass any callable with the same
signature, which must produce identical values (flows may differ).

An engine also takes `dead`, a set of vertices known not to reach `t`
in the current residual graph. Blocking-flow augmentation never enters
such a vertex, and when a search misses `t` it adds every vertex that
search reached. `max_st_flow` returns 0 at once for a source in `dead`.
Augmenting towards `t` adds residual arcs only between vertices that
already reach `t`, so a set stays valid while flow goes only to `t`;
the solvers keep one set per sink for one push loop, whose order keeps
every set valid (see ``solver._saturate``). Pruning leaves the BFS levels of
every vertex that reaches `t` unchanged, so the paths found, and the
flow, are those of an engine that ignores `dead`. A callable engine may
ignore it: it then learns nothing and nothing is skipped.

`max_st_flow` returns the value only. A caller that wants the min cut
takes the residual-reachability side after the flow is maximum:
``cut_from_side(state.graph, residual_reachable(state, s))``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .flowstate import FlowState

Engine = Callable[[FlowState, int, int, int | None, set[int] | None], int]


def blocking_flow(state: FlowState, s: int, t: int,
                  limit: int | None = None,
                  dead: set[int] | None = None) -> int:
    """Dinic-style engine: repeat BFS level graphs + DFS blocking flows.

    The BFS never enters a vertex of `dead`; a BFS that misses `t` adds
    every vertex it reached to `dead`.
    """
    g = state.graph
    rot = g.rotations
    tails = g.dart_tails
    cap = state.capacity
    flow = state.flow
    n = g.vertex_count
    # level -1 marks an unvisited vertex, -2 one the BFS must not enter
    unvisited = [-1] * n
    for v in dead or ():
        unvisited[v] = -2
    total = 0
    while total != limit:
        level = unvisited[:]
        level[s] = 0
        reached = [s]
        for v in reached:  # the list grows behind the loop: a FIFO queue
            nxt = level[v] + 1
            for d in rot[v]:
                if cap[d] - flow[d] + flow[d ^ 1] > 0:
                    w = tails[d ^ 1]
                    if level[w] == -1:
                        level[w] = nxt
                        reached.append(w)
        if level[t] < 0:
            if dead is not None:
                dead.update(reached)
            return total
        ptr = [0] * n
        path: list[int] = []
        v = s
        while True:
            if v == t:
                bottleneck = min(cap[d] - flow[d] + flow[d ^ 1] for d in path)
                if limit is not None:
                    bottleneck = min(bottleneck, limit - total)
                for d in path:
                    state.push(d, bottleneck)
                total += bottleneck
                if total == limit:
                    return total
                for idx, d in enumerate(path):
                    if cap[d] - flow[d] + flow[d ^ 1] == 0:
                        del path[idx:]
                        v = tails[d]
                        break
                continue
            rv = rot[v]
            advanced = False
            while ptr[v] < len(rv):
                d = rv[ptr[v]]
                if cap[d] - flow[d] + flow[d ^ 1] > 0:
                    w = tails[d ^ 1]
                    if level[w] == level[v] + 1:
                        path.append(d)
                        v = w
                        advanced = True
                        break
                ptr[v] += 1
            if not advanced:
                if v == s:
                    break
                d = path.pop()
                v = tails[d]
                ptr[v] += 1
    return total


ENGINES: dict[str, Engine] = {"dinic": blocking_flow}
DEFAULT_ENGINE = "dinic"


def _resolve(engine: str | Engine | None) -> Engine:
    if engine is None:
        return ENGINES[DEFAULT_ENGINE]
    if callable(engine):
        return engine
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}; choose from {sorted(ENGINES)}") from None


def residual_reachable(state: FlowState, source: int) -> set[int]:
    """All vertices reachable from `source` along residual darts."""
    g = state.graph
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for d in g.rotations[v]:
            if state.residual(d) > 0:
                w = g.head(d)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seen


def max_st_flow(state: FlowState, s: int, t: int,
                engine: str | Engine | None = None,
                limit: int | None = None,
                dead: set[int] | None = None) -> int:
    """Augment `state` by a maximum s-t flow; returns the value added.

    With `limit`, at most that many units are added, so the return value
    is ``min(limit, residual max-flow value s -> t)``. `dead` is a set of
    vertices known not to reach `t`; the engine may add to it, and a
    source in it returns 0 without calling the engine.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if dead is not None and s in dead:
        return 0
    return _resolve(engine)(state, s, t, limit, dead)
