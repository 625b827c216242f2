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

Sequential saturation and phase 2 keep, for one push loop, a set per sink
of vertices known not to reach it (see ``maxflow``): a push from such a
vertex returns 0 without a search, and searches towards that sink never
enter them. The flows found are those of the same loops without the sets.
"""

from __future__ import annotations

from .decomposition import (DivisionParams, Piece, attach_super_sinks, divide,
                            root_piece)
from .errors import CannotSatisfyBounds, SeparatorFailed, TooManySinks
from .flowstate import FlowState, cancel_flow_cycles, drain_excess, flow_value
from .formats import Instance
from .maxflow import max_st_flow


class SolveTrace:
    """Observer hooks for solver internals; all methods default to no-ops."""

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


def _push(state: FlowState, p: int, t: int, dead: dict[int, set[int]],
          engine, limit: int | None = None) -> int:
    """`max_st_flow` from p to t inside one push loop.

    `dead[t]` holds vertices known not to reach sink t. A push that adds
    flow to t may open residual paths towards the other sinks, so their
    sets are cleared; t's own set stays valid.
    """
    value = max_st_flow(state, p, t, engine, limit, dead[t])
    if value:
        for u, known in dead.items():
            if u != t:
                known.clear()
    return value


def _saturate_sources(state: FlowState, sources, sinks, engine, trace) -> None:
    dead = {t: set() for t in sinks}
    for s in sources:
        for t in sinks:
            value = _push(state, s, t, dead, engine)
            if trace is not None:
                trace.pair_saturated(state, s, t, value)


def sequential_saturation(instance: Instance, engine=None,
                          trace: SolveTrace | None = None) -> FlowState:
    """Maximum flow by exhausting sources one at a time, in the given order."""
    state = FlowState.from_instance(instance)
    _saturate_sources(state, instance.sources, instance.sinks, engine, trace)
    return state


def pairwise_arbitrary_saturation(instance: Instance,
                                  pair_order: list[tuple[int, int]],
                                  engine=None) -> FlowState:
    """Saturate explicit (source, sink) pairs in order; not maximal in general."""
    state = FlowState.from_instance(instance)
    for s, t in pair_order:
        max_st_flow(state, s, t, engine)
    return state


def piece_maxflow(piece: Piece, state: FlowState, sources, sinks,
                  params: DivisionParams | None = None, engine=None,
                  trace: SolveTrace | None = None, depth: int = 0) -> FlowState:
    """Make the flow maximal from a piece's sources to the sinks.

    `state` lives on the piece's level graph; `sources`/`sinks` are level
    vertex ids. Phase 1 routes interior sources to the piece boundary by
    solving a residual copy of the piece against per-hole super sinks;
    phase 2 pushes from each boundary vertex (ascending id) to each sink
    (ascending id), skipping vertices known not to reach that sink;
    phase 3 restores conservation.
    """
    if params is None:
        params = DivisionParams()
    sink_set = set(sinks)
    source_set = set(sources)
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
            if trace is not None:
                trace.phase1_done(piece, sub_instance, sub_state)

    ordered_sinks = sorted(sink_set)
    dead = {t: set() for t in ordered_sinks}
    for p in sorted(piece.to_parent_vertex[v] for v in piece.boundary):
        if p in sink_set:
            continue
        if p in source_set:
            for t in ordered_sinks:
                _push(state, p, t, dead, engine)
        elif state.excess[p] > 0:
            for t in ordered_sinks:
                if state.excess[p] <= 0:
                    break
                _push(state, p, t, dead, engine, limit=state.excess[p])
    if trace is not None:
        trace.phase2_done(
            Instance(state.graph, state.capacity, sorted(source_set),
                     ordered_sinks), state)

    preflow_value = flow_value(state, ordered_sinks)
    cancel_flow_cycles(state)
    drain_excess(state, source_set, sink_set)
    if trace is not None:
        trace.phase3_done(
            Instance(state.graph, state.capacity, sorted(source_set),
                     ordered_sinks), state, preflow_value)
    return state


def _solve(instance: Instance, params: DivisionParams, engine,
           trace: SolveTrace | None, depth: int = 0) -> FlowState:
    n = instance.graph.vertex_count
    if n <= params.r or not instance.sources:
        state = FlowState.from_instance(instance)
        _saturate_sources(state, instance.sources, instance.sinks, engine, trace)
        return state

    state = FlowState.from_instance(instance)
    try:
        division = divide(root_piece(instance), params)
    except (CannotSatisfyBounds, SeparatorFailed):
        # Degenerate small levels (many super sinks on few vertices) can
        # defeat the bound machinery; source saturation stays correct.
        _saturate_sources(state, instance.sources, instance.sinks, engine, trace)
        return state
    if trace is not None:
        trace.division_made(instance, division, depth)
    for piece in division.pieces:
        piece_maxflow(piece, state, instance.sources, instance.sinks,
                      params, engine, trace, depth)
    return state


def solve_recursive(instance: Instance, params: DivisionParams | None = None,
                    engine=None, trace: SolveTrace | None = None) -> FlowState:
    """Maximum flow from the instance's sources to its sinks by recursive
    division into pieces; at most ``params.sink_bound`` sinks are allowed."""
    if params is None:
        params = DivisionParams()
    if len(instance.sinks) > params.sink_bound:
        raise TooManySinks(
            f"{len(instance.sinks)} sinks exceed the bound {params.sink_bound}")
    return _solve(instance, params, engine, trace)
