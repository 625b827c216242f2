"""Single-source, single-sink max flow over FlowState residuals.

An engine augments the state it is given, so the returned value is the
incremental flow found on top of whatever the state already carries. An
optional `limit` caps that increment: each augmenting path's bottleneck
is clamped to what is left of the limit, and the engine returns as soon
as the limit is reached. This is how the solver pushes a vertex's excess
on towards a sink. An engine is a callable with the signature of
`blocking_flow` (Dinic), the engine used when none is given; another
engine must produce identical values (flows may differ).

The levels of this Dinic are measured *to* the sink. `SinkLabels(t)`
holds `dist`, the residual distance of every vertex to `t` found by one
reverse BFS from `t` (``n``, the vertex count, where `t` is
unreachable), and one current-arc pointer per vertex; `dist` is None
until the first search and after a caller discards the labels. The
engine searches from `s` only along admissible arcs, residual darts on
which `dist` falls by 1, and relabels when the search from `s` is
blocked, until `dist[s]` is infinite. Augmenting along admissible arcs
adds only arcs on which `dist` rises, so the labels stay valid lower
bounds, a dead end stays dead and no skipped arc becomes admissible.
That holds for the next source pushing into `t` too, so one `SinkLabels`
serves every push into `t` of a push loop, and a vertex whose label is
infinite is *dead* for `t`: it cannot reach `t`, and `max_st_flow`
returns 0 for it without calling the engine. A push into another sink
may add arcs the labels do not know of; the caller then sets `dist` to
None, and the engine relabels before it searches.

The flows are those of the textbook forward-level Dinic, arc for arc.
With valid lower-bound labels every admissible `s`-`t` path has exactly
`dist[s]` arcs, so one is found only when `dist[s]` is the true
distance, and then the admissible arcs that lead to `t` are exactly the
arcs of shortest `s`-`t` paths: those through which a forward level
graph from `s` reaches `t`. The search scans each rotation in the same
order and retreats from the same dead ends, so it finds the same paths
in the same order. Another engine may ignore `labels`; then nothing
is shared and nothing is skipped.

`max_st_flow` returns the value only. A caller that wants the min cut
takes the residual-reachability side after the flow is maximum:
``cut_from_side(state.graph, residual_reachable(state, s))``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .flowstate import FlowState


class SinkLabels:
    """Distance labels towards sink `t`, shared by the pushes into it."""

    __slots__ = ("t", "dist", "ptr")

    def __init__(self, t: int):
        self.t = t
        self.dist: list[int] | None = None
        self.ptr: list[int] | None = None

    def relabel(self, state: FlowState) -> None:
        """Exact residual distances to `t` by one reverse BFS; resets the
        current-arc pointers."""
        g = state.graph
        rot = g.rotations
        tails = g.dart_tails
        cap = state.capacity
        flow = state.flow
        n = g.vertex_count
        dist = [n] * n
        dist[self.t] = 0
        reached = [self.t]
        for w in reached:  # the list grows behind the loop: a FIFO queue
            nxt = dist[w] + 1
            for d in rot[w]:
                r = d ^ 1  # the dart into w
                if cap[r] - flow[r] + flow[d] > 0:
                    u = tails[r]
                    if dist[u] == n:
                        dist[u] = nxt
                        reached.append(u)
        self.dist = dist
        self.ptr = [0] * n


Engine = Callable[[FlowState, int, int, int | None, SinkLabels | None], int]


def blocking_flow(state: FlowState, s: int, t: int,
                  limit: int | None = None,
                  labels: SinkLabels | None = None) -> int:
    """Dinic with levels measured to `t`: augment along admissible arcs,
    relabel when the search from `s` is blocked, stop once `s` cannot
    reach `t` or `limit` is met. Without `labels` it builds its own."""
    if limit == 0:
        return 0
    if labels is None:
        labels = SinkLabels(t)
    if labels.dist is None:
        labels.relabel(state)
    g = state.graph
    rot = g.rotations
    tails = g.dart_tails
    cap = state.capacity
    flow = state.flow
    n = g.vertex_count
    dist = labels.dist
    ptr = labels.ptr
    total = 0
    path: list[int] = []
    v = s
    while dist[s] < n:
        if v == t:
            bottleneck = min(cap[d] - flow[d] + flow[d ^ 1] for d in path)
            if limit is not None:
                bottleneck = min(bottleneck, limit - total)
            for d in path:
                state.push(d, bottleneck)
            total += bottleneck
            if total == limit:
                break
            for idx, d in enumerate(path):
                if cap[d] - flow[d] + flow[d ^ 1] == 0:
                    del path[idx:]
                    v = tails[d]
                    break
            continue
        rv = rot[v]
        want = dist[v] - 1
        i = ptr[v]
        while i < len(rv):
            d = rv[i]
            if dist[tails[d ^ 1]] == want and cap[d] - flow[d] + flow[d ^ 1] > 0:
                break
            i += 1
        ptr[v] = i
        if i < len(rv):
            path.append(d)
            v = tails[d ^ 1]
        elif v == s:
            labels.relabel(state)
            dist = labels.dist
            ptr = labels.ptr
        else:
            d = path.pop()
            v = tails[d]
            ptr[v] += 1
    return total


# Nothing in the package looks an engine up by name. The table stays for
# `perfbench/tracing.py`, which finds the default engine through it and
# passes a timing wrapper of it as `engine=`; without it, the benchmark's
# traced `maxflow.engine_*` layers would read 0.
ENGINES: dict[str, Engine] = {"dinic": blocking_flow}
DEFAULT_ENGINE = "dinic"


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
                engine: Engine | None = None,
                limit: int | None = None,
                labels: SinkLabels | None = None) -> int:
    """Augment `state` by a maximum s-t flow; returns the value added.

    With `limit`, at most that many units are added, so the return value
    is ``min(limit, residual max-flow value s -> t)``. `labels` are the
    `SinkLabels` of `t` shared with earlier pushes into `t`; a source
    whose label is infinite returns 0 without calling the engine, which
    is `blocking_flow` when `engine` is None.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if labels is not None:
        if labels.t != t:
            raise ValueError(f"labels of sink {labels.t} used for sink {t}")
        if labels.dist is not None and labels.dist[s] == len(labels.dist):
            return 0
    return (engine or blocking_flow)(state, s, t, limit, labels)
