"""Flow and preflow state over an embedded graph.

Flow is stored per dart in net normal form: of the two opposite darts of
an edge at most one carries positive flow. Residual capacity of a dart is
``cap(d) - flow(d) + flow(rev d)``; per-vertex excess (inflow minus
outflow) is maintained incrementally and recomputable for validation.
Every flow change goes through `FlowState.push_path`, which sends an
amount along a walk of darts and changes excess only at the walk's two
ends; `push` is its one-dart case. The max-flow engine augments a whole
path, and the cycle canceller cancels a whole cycle, with one call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import CyclicSupport


class FlowState:
    """Mutable capacities/flow/excess bundle bound to one EmbeddedGraph."""

    __slots__ = ("graph", "capacity", "flow", "excess", "cancelled_cycles")

    def __init__(self, graph: EmbeddedGraph, capacity: list[int],
                 flow: list[int] | None = None):
        if len(capacity) != graph.dart_count:
            raise ValueError("one capacity per dart required")
        self.graph = graph
        self.capacity = list(capacity)
        self.flow = [0] * graph.dart_count if flow is None else list(flow)
        self.excess = [0] * graph.vertex_count
        self.cancelled_cycles = 0
        if flow is not None:
            self._recompute_excess()

    @classmethod
    def from_instance(cls, instance) -> "FlowState":
        return cls(instance.graph, instance.capacities)

    def _recompute_excess(self) -> None:
        ex = [0] * self.graph.vertex_count
        tail = self.graph.tail
        head = self.graph.head
        for d, f in enumerate(self.flow):
            if f:
                ex[head(d)] += f
                ex[tail(d)] -= f
        self.excess = ex

    # -- queries -----------------------------------------------------------

    def residual(self, dart: int) -> int:
        """Remaining capacity plus cancellable reverse flow."""
        return self.capacity[dart] - self.flow[dart] + self.flow[dart ^ 1]

    def net_edge_flow(self, edge: int) -> int:
        return self.flow[2 * edge] - self.flow[2 * edge + 1]

    # -- mutation ------------------------------------------------------------

    def push(self, dart: int, amount: int) -> None:
        """Send `amount` along a dart, keeping net normal form."""
        self.push_path((dart,), amount)

    def push_path(self, darts, amount: int) -> None:
        """Send `amount` along a walk, keeping net normal form.

        Each dart must start where the one before it ends, use an edge no
        other dart of the walk uses, and have residual at least `amount`.
        Only the walk's two ends change excess; a closed walk changes
        none. Raises ValueError, changing nothing, if any of this fails or
        `amount` is negative; an amount of 0 along a walk changes nothing.
        """
        if amount < 0:
            raise ValueError(f"push of negative amount {amount}")
        if not darts:
            raise ValueError("push along an empty walk")
        cap = self.capacity
        flow = self.flow
        tails = self.graph.dart_tails
        start = at = tails[darts[0]]
        for d in darts:
            if tails[d] != at:
                raise ValueError(
                    f"dart {d} does not continue the walk at vertex {at}")
            if cap[d] - flow[d] + flow[d ^ 1] < amount:
                raise ValueError(
                    f"push of {amount} exceeds residual "
                    f"{cap[d] - flow[d] + flow[d ^ 1]} on dart {d}")
            at = tails[d ^ 1]
        if len(darts) > 1 and len({d >> 1 for d in darts}) < len(darts):
            raise ValueError("walk uses an edge twice")
        for d in darts:
            rev = d ^ 1
            back = flow[rev]  # cancelled first
            if back < amount:
                flow[rev] = 0
                flow[d] += amount - back
            else:
                flow[rev] = back - amount
        self.excess[start] -= amount
        self.excess[at] += amount


@dataclass(frozen=True)
class Cut:
    """A bipartition (A, B) of the vertex ids."""

    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        if self.a & self.b:
            raise ValueError("cut sides overlap")


def cut_from_side(graph: EmbeddedGraph, side) -> Cut:
    a = frozenset(side)
    return Cut(a, frozenset(range(graph.vertex_count)) - a)


def flow_value(state: FlowState, sinks) -> int:
    """Net inflow over the sink set."""
    return sum(state.excess[t] for t in sinks)


def check_cut_saturated(state: FlowState, cut: Cut) -> bool:
    """True iff every dart from side A to side B has zero residual."""
    g = state.graph
    for d in range(g.dart_count):
        if g.tail(d) in cut.a and g.head(d) in cut.b and state.residual(d) > 0:
            return False
    return True


def is_max_preflow(state: FlowState, sources, sinks):
    """Maximality test for a preflow.

    Returns ``(True, None)`` when no residual path leads from a source or
    an excess-carrying vertex to a sink, else ``(False, witness)`` with one
    violating path as a vertex list.
    """
    g = state.graph
    sink_set = set(sinks)
    seeds = set(sources)
    for v in range(g.vertex_count):
        if state.excess[v] > 0 and v not in sink_set:
            seeds.add(v)
    parent: dict[int, int | None] = {v: None for v in seeds}
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        if v in sink_set:
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return False, path[::-1]
        for d in g.rotations[v]:
            w = g.head(d)
            if w not in parent and state.residual(d) > 0:
                parent[w] = v
                queue.append(w)
    return True, None


# -- preflow-to-flow conversion -------------------------------------------

_UNSEEN, _FINISHED = -1, -2  # DFS marks; a vertex on the stack holds its index


def cancel_flow_cycles(state: FlowState) -> list[int]:
    """Cancel every directed cycle of positive-flow darts; return the
    vertices in the order one DFS over those darts finished them.

    When a dart closes a cycle with the DFS path, the cycle is cancelled
    by its smallest flow. The DFS then backs up to the tail of the first
    cycle dart the cancel emptied, marks the vertices it popped unseen and
    resumes there. Cancelling only lowers flow, so the support only
    shrinks and a finished vertex still reaches no cycle: the cycles
    cancelled, in order, are those of a DFS restarted at vertex 0 after
    every cancel. Every vertex finishes after all vertices its flow
    reaches, which is the order `drain_excess` walks.

    Per-vertex excess and the flow into any sink set are unchanged. The
    number of cancelled cycles accumulates in ``state.cancelled_cycles``.
    On the recursive solver's main path it is not zero: superposing the
    flows of several pieces creates cycles.
    """
    g = state.graph
    rot = g.rotations
    tails = g.dart_tails
    flow = state.flow
    place = [_UNSEEN] * g.vertex_count
    finished: list[int] = []
    for root in range(g.vertex_count):
        if place[root] != _UNSEEN:
            continue
        place[root] = 0
        stack = [[root, 0, -1]]  # vertex, next rotation index, dart into it
        while stack:
            top = stack[-1]
            v, i = top[0], top[1]
            rv = rot[v]
            while i < len(rv):
                d = rv[i]
                i += 1
                if flow[d] > 0 and place[tails[d ^ 1]] != _FINISHED:
                    break
            else:
                place[v] = _FINISHED
                finished.append(v)
                stack.pop()
                continue
            top[1] = i
            w = tails[d ^ 1]
            k = place[w]
            if k == _UNSEEN:
                place[w] = len(stack)
                stack.append([w, 0, d])
                continue
            cycle = [frame[2] for frame in stack[k + 1:]] + [d]  # w -> v -> w
            amount = min(flow[c] for c in cycle)
            state.push_path([c ^ 1 for c in reversed(cycle)], amount)
            state.cancelled_cycles += 1
            cut = k + next(j for j, c in enumerate(cycle) if not flow[c])
            for frame in stack[cut + 1:]:
                place[frame[0]] = _UNSEEN
            del stack[cut + 1:]
    return finished


def drain_excess(state: FlowState, sources, sinks, order) -> FlowState:
    """Turn an acyclic preflow into a flow by returning stranded excess.

    `order` lists every vertex after all vertices its flow reaches, as
    `cancel_flow_cycles` returns it. Walking it, each non-terminal vertex
    with positive excess reduces its incoming flow (fixed dart order)
    until it conserves. Its excess is then its own plus what its
    successors returned, and darts into it change only now, so every such
    order gives the same flow. Raises CyclicSupport if a vertex comes
    before one its flow reaches, as it must when the support has a cycle.
    """
    g = state.graph
    rot = g.rotations
    tails = g.dart_tails
    flow = state.flow
    excess = state.excess
    skip = set(sources) | set(sinks)
    walked = [False] * g.vertex_count
    for v in order:
        rv = rot[v]
        for d in rv:
            if flow[d] > 0 and not walked[tails[d ^ 1]]:
                raise CyclicSupport(
                    f"vertex {v} comes before {tails[d ^ 1]}, which its flow reaches")
        walked[v] = True
        if v in skip or excess[v] <= 0:
            continue
        for out in rv:
            din = out ^ 1  # dart arriving at v
            if flow[din] > 0:
                state.push(out, min(flow[din], excess[v]))
                if excess[v] <= 0:
                    break
    return state
