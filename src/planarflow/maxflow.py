"""Max flow from one source into a sink set over FlowState residuals.

An engine augments the state it is given, so the returned value is the
incremental flow found on top of whatever the state already carries. An
optional `limit` caps that increment: each augmenting path's bottleneck
is clamped to what is left of the limit, and the engine returns as soon
as the limit is reached. This is how the solver pushes a vertex's excess
on towards the sinks. An engine is a callable with the signature of
`blocking_flow` (Dinic), the engine used when none is given; another
engine must produce identical values (flows may differ). Its `t` is one
sink or a collection of them, and the flow goes into the whole set, as
into one super sink joined to each of them.

The levels of this Dinic are measured *to* the sink set.
`SinkLabels(t)` holds `dist`, one label per vertex from a reverse BFS
seeded from every sink, and one current-arc pointer per vertex; `dist`
is None until the first push. The engine relabels for the source `s` it
pushes from, and the search stops once every vertex within ``dist[s]``
of a sink is reached: those vertices get their exact distance to the
nearest sink, every other vertex ``dist[s] + 1``, a lower bound. A
search that runs out first labels every vertex exactly, ``n`` (the
vertex count) where no sink is reachable, so ``dist[v] == n`` still
means that `v` cannot reach a sink. Either way the labels are valid:
``dist[u] <= dist[v] + 1`` on every residual dart u -> v, and
``dist[v] == 0`` exactly on the sinks, which is how the engine knows it
has reached one. Labels that do not exist yet start at 0 on the sinks
and 1 elsewhere, valid lower bounds. The engine searches from `s` only
along admissible arcs, residual darts on which `dist` falls by 1, and
relabels when the search from `s` is blocked, until ``dist[s] == n``; a
blocked `s` that no residual dart leaves is not relabelled but set to
``dist[s] = n``, which is exact and keeps the labels valid. Augmenting
along admissible arcs adds only arcs on which `dist` rises, so the
labels stay valid lower bounds, a dead end stays dead and no skipped arc
becomes admissible. That holds for the next source pushing into the same
sinks too, so one `SinkLabels` serves every push of a push loop; a
source labelled below its true distance finds no admissible path, so its
search is blocked and relabels. A vertex labelled n is *dead*: it cannot
reach a sink, and `max_st_flow` returns 0 for it without calling the
engine.

The flows are those of the textbook forward-level Dinic into a super
sink, arc for arc. With valid lower-bound labels every admissible path
from `s` to a sink has exactly `dist[s]` arcs, so one is found only when
`dist[s]` is the true distance, and then validity forces the label of
every vertex of a shortest such path to its true distance: the
admissible arcs that lead to a sink are exactly the arcs of shortest
paths from `s` to the sink set, those through which a forward level
graph from `s` reaches it. The search from `s` visits only vertices
labelled below `dist[s]`, which a stopped relabel labels exactly, as a
full one would; the vertices that a stopped relabel labels by the bound
are never visited. The search scans each rotation in the same order and
retreats from the same dead ends, so it finds the same paths in the same
order, and augments each with one `FlowState.push_path`. Another engine
may ignore `labels`; then nothing is shared and nothing is skipped.

`max_st_flow` returns the value only. A caller that wants the min cut
takes the residual-reachability side after the flow is maximum:
``cut_from_side(state.graph, residual_reachable(state, s))``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from .flowstate import FlowState


def sink_set(t: int | Iterable[int]) -> tuple[int, ...]:
    """One sink, or a collection of sinks, as a tuple of sinks."""
    return (t,) if isinstance(t, int) else tuple(t)


class SinkLabels:
    """Distance labels towards a sink set, shared by the pushes into it:
    exact within the last search's reach, lower bounds beyond it."""

    __slots__ = ("sinks", "dist", "ptr")

    def __init__(self, t: int | Iterable[int]):
        self.sinks = sink_set(t)
        self.dist: list[int] | None = None
        self.ptr: list[int] | None = None

    def relabel(self, state: FlowState, s: int) -> None:
        """Distances to the nearest sink by one reverse BFS from every
        sink that stops once every vertex within ``dist[s]`` of a sink is
        reached; resets the current-arc pointers.

        Reached vertices get their exact distance and every other vertex
        ``dist[s] + 1``, a lower bound. A search that runs out first
        labels every vertex exactly, ``n`` where no sink is reachable.
        A dart's residual is read only when its tail is unlabelled;
        the order of discovery is that of testing the residual first.
        """
        g = state.graph
        rot = g.rotations
        tails = g.dart_tails
        res = state.res
        n = g.vertex_count
        dist = [n] * n
        for t in self.sinks:
            dist[t] = 0
        reached = list(self.sinks)
        for w in reached:  # the list grows behind the loop: a FIFO queue
            nxt = dist[w] + 1
            if nxt > dist[s]:
                # every vertex within dist[s] of a sink is reached: the
                # rest lie at nxt or beyond
                exact = dist
                dist = [nxt] * n
                for v in reached:
                    dist[v] = exact[v]
                break
            for d in rot[w]:
                r = d ^ 1  # the dart into w
                u = tails[r]
                # most far ends are already labelled: test that first
                if dist[u] == n and res[r] > 0:
                    dist[u] = nxt
                    reached.append(u)
        self.dist = dist
        self.ptr = [0] * n


Engine = Callable[[FlowState, int, int | Iterable[int], int | None,
                   SinkLabels | None], int]


def blocking_flow(state: FlowState, s: int, t: int | Iterable[int],
                  limit: int | None = None,
                  labels: SinkLabels | None = None) -> int:
    """Dinic with levels measured to the sinks `t`: augment along
    admissible arcs into whichever sink they reach, relabel when the
    search from `s` is blocked, stop once `s` cannot reach a sink or
    `limit` is met. Without `labels` it builds its own."""
    if limit == 0:
        return 0
    if labels is None:
        labels = SinkLabels(t)
    g = state.graph
    rot = g.rotations
    tails = g.dart_tails
    res = state.res
    n = g.vertex_count
    if labels.dist is None:  # fresh: 0 on the sinks and 1 elsewhere, valid
        labels.dist = [1] * n
        for v in labels.sinks:
            labels.dist[v] = 0
        labels.ptr = [0] * n
    dist = labels.dist
    ptr = labels.ptr
    total = 0
    path: list[int] = []
    v = s
    while dist[s] < n:
        if dist[v] == 0:  # a sink
            residuals = [res[d] for d in path]
            bottleneck = min(residuals)
            if limit is not None:
                bottleneck = min(bottleneck, limit - total)
            state.push_path(path, bottleneck)
            total += bottleneck
            if total == limit:
                break
            # the limit did not clamp: retreat to the first dart emptied
            idx = residuals.index(bottleneck)
            v = tails[path[idx]]
            del path[idx:]
            continue
        rv = rot[v]
        want = dist[v] - 1
        i = ptr[v]
        while i < len(rv):
            d = rv[i]
            if dist[tails[d ^ 1]] == want and res[d] > 0:
                break
            i += 1
        ptr[v] = i
        if i < len(rv):
            path.append(d)
            v = tails[d ^ 1]
        elif v == s:
            if not any(res[d] > 0 for d in rv):
                dist[s] = n  # no residual dart leaves s: exact, and valid
            else:
                labels.relabel(state, s)
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


def reaches_a_sink(state: FlowState, vertices, sinks, count: int = 1) -> bool:
    """Whether at least `count` vertices in `vertices` reach a sink along
    residual darts: one reverse search from `sinks`, with the dart test
    of `SinkLabels.relabel` (a seen tail first, then the residual), that
    returns once it has met that many (at once, False, when fewer are
    given)."""
    wanted = set(vertices)
    if len(wanted) < count:
        return False
    g = state.graph
    rot = g.rotations
    tails = g.dart_tails
    res = state.res
    seen = bytearray(g.vertex_count)
    for t in sinks:
        seen[t] = 1
    reached = list(sinks)
    for w in reached:  # the list grows behind the loop: a FIFO queue
        for d in rot[w]:
            r = d ^ 1  # the dart into w
            u = tails[r]
            if not seen[u] and res[r] > 0:
                if u in wanted:
                    count -= 1
                    if not count:
                        return True
                seen[u] = 1
                reached.append(u)
    return False


def max_st_flow(state: FlowState, s: int, t: int | Iterable[int],
                engine: Engine | None = None,
                limit: int | None = None,
                labels: SinkLabels | None = None) -> int:
    """Augment `state` by a maximum flow from `s` into `t`, one sink or a
    collection of sinks; returns the value added.

    With `limit`, at most that many units are added, so the return value
    is ``min(limit, residual max-flow value s -> t)``. `labels` are the
    `SinkLabels` of the same sinks shared with earlier pushes into them; a
    source labelled n (cut off from every sink) returns 0 without calling
    the engine, which is `blocking_flow` when `engine` is None.
    """
    sinks = sink_set(t)
    if s in sinks:
        raise ValueError("source and sink must differ")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if labels is not None:
        if labels.sinks != sinks:
            raise ValueError(
                f"labels of sinks {labels.sinks} used for sinks {sinks}")
        if labels.dist is not None and labels.dist[s] == len(labels.dist):
            return 0
    return (engine or blocking_flow)(state, s, t, limit, labels)
