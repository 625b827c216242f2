"""Multiple-source, bounded-sink max-flow solvers.

Two independent algorithms are provided:

* ``sequential_saturation`` exhausts each source against every sink on the
  residual graph, in the given order; grouping all sinks per source makes
  the final flow maximum regardless of order.
* ``solve_recursive`` divides the graph into hole-bounded pieces and runs,
  per piece, a three-phase push: interior sources to the piece boundary
  (recursively, against per-hole super sinks), boundary vertices to the
  sinks (sources unbounded, others limited by their accumulated excess),
  and a preflow-to-flow conversion.

``pairwise_arbitrary_saturation`` saturates explicit (source, sink) pairs
in a given order; it exists to demonstrate that ungrouped pair orders are
not optimal in general.

Sequential saturation, the recursion's base case and phase 2 are one
push loop (``_saturate``). It keeps, for the loop, one ``SinkLabels`` per
sink (see ``maxflow``): distances to that sink from one reverse BFS,
shared by every push into it and redone only when a push is blocked. A
push from a vertex whose label is infinite returns 0 without a search.
A push that adds flow into one sink discards the labels of the sinks
after it, which are recomputed before they are used again. The flows
found are those of the same loop with a fresh Dinic search per push.

Both solvers take an `engine`, a callable with the signature of
``maxflow.blocking_flow`` (None means that engine), and a `trace`, a
``SolveTrace`` whose hooks every solve calls; a solve given no trace
calls those of the shared no-op ``NO_TRACE``. Phase-2 and phase-3 hooks
receive the ``Instance`` of the level the piece belongs to.
"""

from __future__ import annotations

from .decomposition import (DivisionParams, Piece, attach_super_sinks, divide,
                            root_piece)
from .errors import CannotSatisfyBounds, SeparatorFailed, TooManySinks
from .flowstate import FlowState, cancel_flow_cycles, drain_excess, flow_value
from .formats import Instance
from .maxflow import SinkLabels, max_st_flow


class SolveTrace:
    """Observer hooks for solver internals; all methods default to no-ops.

    ``pair_saturated`` fires after every push of the push loop, in both
    solvers and phase 2 included, with the value it added (0 when the
    vertex's label showed it cannot reach the sink). ``phase2_done`` and
    ``phase3_done`` receive the level instance, whose graph and
    capacities are those of `state`.
    """

    def pair_saturated(self, state: FlowState, source: int, sink: int,
                       value: int) -> None:
        pass

    def division_made(self, instance: Instance, division, depth: int = 0) -> None:
        pass

    def phase1_done(self, piece: Piece, sub_instance: Instance,
                    sub_state: FlowState) -> None:
        pass

    def phase2_done(self, instance: Instance, state: FlowState) -> None:
        pass

    def phase3_done(self, instance: Instance, state: FlowState,
                    preflow_value: int) -> None:
        pass


NO_TRACE = SolveTrace()


def _saturate(state: FlowState, vertices, sources, sinks, engine,
              trace: SolveTrace) -> None:
    """Push each vertex in `vertices`, in order, to each sink, in order.

    A vertex in `sources` pushes unbounded; any other pushes at most its
    excess and stops once that is spent. `labels[j]` serves every push
    into ``sinks[j]``, and after a push that adds flow into ``sinks[j]``
    only the labels of ``sinks[j+1:]`` are discarded. A vertex pushes into
    ``sinks[j]`` only once it cannot reach any earlier sink t. The
    vertices that cannot reach t are closed under residual arcs, and
    that set holds the whole augmenting path, so the push adds and
    removes arcs only inside it: it changes no distance to t, and no arc
    of a vertex outside the set, whose current-arc pointers stay valid.
    """
    labels = [SinkLabels(t) for t in sinks]
    for p in vertices:
        bounded = p not in sources
        for j, t in enumerate(sinks):
            if bounded and state.excess[p] <= 0:
                break
            value = max_st_flow(state, p, t, engine,
                                state.excess[p] if bounded else None, labels[j])
            if value:
                for later in labels[j + 1:]:
                    later.dist = None
            trace.pair_saturated(state, p, t, value)


def sequential_saturation(instance: Instance, engine=None,
                          trace: SolveTrace = NO_TRACE) -> FlowState:
    """Maximum flow by exhausting sources one at a time, in the given order."""
    state = FlowState.from_instance(instance)
    _saturate(state, instance.sources, set(instance.sources), instance.sinks,
              engine, trace)
    return state


def pairwise_arbitrary_saturation(instance: Instance,
                                  pair_order: list[tuple[int, int]]) -> FlowState:
    """Saturate explicit (source, sink) pairs in order; not maximal in general."""
    state = FlowState.from_instance(instance)
    for s, t in pair_order:
        max_st_flow(state, s, t)
    return state


def piece_maxflow(piece: Piece, state: FlowState, instance: Instance,
                  params: DivisionParams | None = None, engine=None,
                  trace: SolveTrace = NO_TRACE, depth: int = 0) -> FlowState:
    """Make the flow maximal from a piece's sources to the sinks.

    `state` lives on the piece's level graph; `instance` is that level,
    whose sources and sinks are the terminals. Phase 1 routes interior
    sources to the piece boundary by solving a residual copy of the piece
    against per-hole super sinks; phase 2 pushes from each boundary
    vertex (ascending id) to each sink (ascending id), skipping vertices
    known not to reach that sink; phase 3 restores conservation.
    """
    if params is None:
        params = DivisionParams()
    ordered_sinks = sorted(instance.sinks)
    sink_set = set(ordered_sinks)
    source_set = set(instance.sources)
    interior = sorted(piece.sources - piece.boundary)

    if interior:
        caps = [state.residual(piece.to_parent_dart(d))
                for d in range(piece.graph.dart_count)]
        attached = attach_super_sinks(piece, caps)
        if attached.super_sinks:
            sub_instance = Instance(attached.graph, attached.capacities,
                                    interior, attached.super_sinks)
            sub_state = _solve(sub_instance, params, engine, trace, depth + 1)
            for e in range(piece.graph.edge_count):
                net = sub_state.net_edge_flow(e)
                parent_dart = 2 * piece.to_parent_edge[e]
                if net > 0:
                    state.push(parent_dart, net)
                elif net < 0:
                    state.push(parent_dart | 1, -net)
            trace.phase1_done(piece, sub_instance, sub_state)

    boundary = {piece.to_parent_vertex[v] for v in piece.boundary} - sink_set
    _saturate(state, sorted(boundary), source_set, ordered_sinks, engine, trace)
    trace.phase2_done(instance, state)

    preflow_value = flow_value(state, ordered_sinks)
    drain_excess(state, source_set, sink_set, cancel_flow_cycles(state))
    trace.phase3_done(instance, state, preflow_value)
    return state


def _solve(instance: Instance, params: DivisionParams, engine,
           trace: SolveTrace, depth: int = 0) -> FlowState:
    division = None
    if instance.graph.vertex_count > params.r and instance.sources:
        try:
            division = divide(root_piece(instance), params)
        except (CannotSatisfyBounds, SeparatorFailed):
            # Degenerate small levels (many super sinks on few vertices) can
            # defeat the bound machinery; source saturation stays correct.
            pass
    if division is None:
        return sequential_saturation(instance, engine, trace)
    state = FlowState.from_instance(instance)
    trace.division_made(instance, division, depth)
    for piece in division.pieces:
        piece_maxflow(piece, state, instance, params, engine, trace, depth)
    return state


def solve_recursive(instance: Instance, params: DivisionParams | None = None,
                    engine=None, trace: SolveTrace = NO_TRACE) -> FlowState:
    """Maximum flow from the instance's sources to its sinks by recursive
    division into pieces; at most ``params.sink_bound`` sinks are allowed."""
    if params is None:
        params = DivisionParams()
    if len(instance.sinks) > params.sink_bound:
        raise TooManySinks(
            f"{len(instance.sinks)} sinks exceed the bound {params.sink_bound}")
    return _solve(instance, params, engine, trace)
