"""Flow and preflow state over an embedded graph.

Flow is stored per dart in net normal form: of the two opposite darts of
an edge at most one carries positive flow. Residual capacity of a dart is
``cap(d) - flow(d) + flow(rev d)``; per-vertex excess (inflow minus
outflow) is maintained incrementally and recomputable for validation.
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
        if amount == 0:
            return
        if amount < 0 or amount > self.residual(dart):
            raise ValueError(
                f"push of {amount} exceeds residual {self.residual(dart)} on dart {dart}")
        rev = dart ^ 1
        cancel = min(amount, self.flow[rev])
        self.flow[rev] -= cancel
        self.flow[dart] += amount - cancel
        self.excess[self.graph.tail(dart)] -= amount
        self.excess[self.graph.head(dart)] += amount


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


def _find_support_cycle(state: FlowState) -> list[int] | None:
    """One directed cycle of positive-flow darts, or None if support is acyclic."""
    g = state.graph
    n = g.vertex_count
    color = [0] * n     # 0 unseen, 1 on current DFS path, 2 done
    enter = [-1] * n    # dart used to reach a path vertex
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            rot = g.rotations[v]
            moved = False
            while i < len(rot):
                d = rot[i]
                i += 1
                if state.flow[d] <= 0:
                    continue
                w = g.head(d)
                if color[w] == 1:
                    cyc = [d]
                    x = v
                    while x != w:
                        pd = enter[x]
                        cyc.append(pd)
                        x = g.tail(pd)
                    cyc.reverse()
                    return cyc
                if color[w] == 0:
                    stack[-1] = (v, i)
                    color[w] = 1
                    enter[w] = d
                    stack.append((w, 0))
                    moved = True
                    break
            if not moved:
                color[v] = 2
                stack.pop()
    return None


def cancel_flow_cycles(state: FlowState) -> FlowState:
    """Remove directed cycles of flow until the support graph is acyclic.

    Per-vertex excess and the flow into any sink set are unchanged. The
    number of cancelled cycles accumulates in ``state.cancelled_cycles``.
    On the recursive solver's main path it is not zero: superposing the
    flows of several pieces creates occasional cycles.
    """
    while True:
        cycle = _find_support_cycle(state)
        if cycle is None:
            return state
        bottleneck = min(state.flow[d] for d in cycle)
        for d in cycle:
            state.push(d ^ 1, bottleneck)
        state.cancelled_cycles += 1


def drain_excess(state: FlowState, sources, sinks) -> FlowState:
    """Turn an acyclic preflow into a flow by returning stranded excess.

    Vertices are processed in reverse topological order of the flow's
    support graph; at each non-terminal vertex with positive excess the
    incoming flow is reduced (fixed dart order) until the vertex conserves.
    Raises CyclicSupport if the support graph still contains a cycle.
    """
    g = state.graph
    n = g.vertex_count
    indeg = [0] * n
    for d, f in enumerate(state.flow):
        if f > 0:
            indeg[g.head(d)] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    queue = deque(order)
    while queue:
        v = queue.popleft()
        for d in g.rotations[v]:
            if state.flow[d] > 0:
                w = g.head(d)
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
                    queue.append(w)
    if len(order) != n:
        raise CyclicSupport("flow support graph contains a cycle")

    skip = set(sources) | set(sinks)
    for v in reversed(order):
        if v in skip or state.excess[v] <= 0:
            continue
        for out in g.rotations[v]:
            din = out ^ 1  # dart arriving at v
            if state.flow[din] > 0:
                dec = min(state.flow[din], state.excess[v])
                if dec > 0:
                    state.push(out, dec)
                if state.excess[v] <= 0:
                    break
    return state
