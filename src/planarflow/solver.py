"""Multiple-source, bounded-sink max-flow solvers.

Two independent algorithms are provided:

* ``sequential_saturation`` exhausts each source against every sink on the
  residual graph, in the given order; grouping all sinks per source makes
  the final flow maximum regardless of order.
* ``solve_recursive`` divides each level instance into hole-bounded
  pieces (``divide``) and runs, per piece that holds a source, a
  three-phase push: interior sources to the piece boundary (by solving,
  recursively, the sub-instance ``attach_super_sinks`` makes of the
  piece's residual graph, with one super sink per hole),
  boundary vertices to the sinks (sources unbounded, others limited by
  their accumulated excess), and a preflow-to-flow conversion. Each
  conversion leaves no excess off the terminals and no flow cycle, so the
  phases of a piece without a source would move nothing; such pieces are
  skipped, hooks included.

``pairwise_arbitrary_saturation`` saturates explicit (source, sink) pairs
in a given order; it exists to demonstrate that ungrouped pair orders are
not optimal in general.

Sequential saturation, the recursion's base case and phase 2 are one
push loop (``_saturate``). It keeps, for the loop, one ``SinkLabels`` per
sink (see ``maxflow``): distances to that sink from one reverse BFS that
stops at the level of the vertex that pushes, lower bounds beyond it,
shared by every push into that sink and redone only when a push is
blocked. A push from a vertex labelled n, which cannot reach the sink,
returns 0 without a search; one from a vertex beyond the stopped search
finds no path until its blocked search relabels. A push that adds flow
into one sink discards the labels of the sinks after it, which are
recomputed before they are used again. The flows found are those of the
same loop with a fresh Dinic search per push.

Both solvers take an `engine`, a callable with the signature of
``maxflow.blocking_flow`` (None means that engine), and a `trace`, a
``SolveTrace``. ``solve_recursive`` calls its hooks on every division
and every piece; a solve given no trace calls those of the shared no-op
``NO_TRACE``. Phase-2 and phase-3 hooks receive the ``Instance`` of the
level the piece belongs to. ``sequential_saturation`` fires no hook: a
push is observed through `engine`.
"""

from __future__ import annotations

from .decomposition import DivisionParams, Piece, attach_super_sinks, divide
from .errors import CannotSatisfyBounds, SeparatorFailed, TooManySinks
from .flowstate import FlowState, cancel_flow_cycles, drain_excess
from .formats import Instance
from .maxflow import SinkLabels, max_st_flow


class SolveTrace:
    """Observer hooks of the recursive solver; all methods default to no-ops.

    ``phase2_done`` and ``phase3_done`` receive the level instance, whose
    graph and capacities are those of `state`. They fire on the same
    state with no other hook between them, so the flow value after
    phase 2 is the preflow value that phase 3 keeps.
    """

    def division_made(self, instance: Instance, division, depth: int = 0) -> None:
        pass

    def phase1_done(self, piece: Piece, sub_instance: Instance,
                    sub_state: FlowState) -> None:
        pass

    def phase2_done(self, instance: Instance, state: FlowState) -> None:
        pass

    def phase3_done(self, instance: Instance, state: FlowState) -> None:
        pass


NO_TRACE = SolveTrace()


def _saturate(state: FlowState, vertices, sources, sinks, engine) -> None:
    """Push each vertex in `vertices`, in order, to each sink, in order.

    A vertex in `sources` pushes unbounded; any other pushes at most its
    excess and stops once that is spent. `labels[j]` serves every push
    into ``sinks[j]``, and after a push that adds flow into ``sinks[j]``
    only the labels of ``sinks[j+1:]`` are discarded. A vertex pushes into
    ``sinks[j]`` only once it cannot reach any earlier sink t. The
    vertices that cannot reach t are closed under residual arcs, and
    that set holds the whole augmenting path, so the push adds and
    removes arcs only inside it: it changes no distance to t, no label
    of t stops being a lower bound, and no arc of a vertex outside the
    set changes, whose current-arc pointers stay valid.
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


def sequential_saturation(instance: Instance, engine=None,
                          trace: SolveTrace = NO_TRACE) -> FlowState:
    """Maximum flow by exhausting sources one at a time, in the given order.

    It fires no hook; `trace` is accepted, and ignored, so that a caller
    can pass one observer to both solvers (the benchmark's traced pass
    does).
    """
    state = FlowState.from_instance(instance)
    _saturate(state, instance.sources, set(instance.sources), instance.sinks,
              engine)
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
    sources to the piece boundary by solving the sub-instance that
    ``attach_super_sinks`` makes of the piece's residual capacities, its
    interior sources and per-hole super sinks; phase 2 pushes from each
    boundary vertex (ascending id) to each sink (ascending id), skipping
    vertices known not to reach that sink; phase 3 restores conservation.
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
        sub_instance = attach_super_sinks(piece, caps, interior)
        if sub_instance.sinks:
            sub_state = _solve(sub_instance, params, engine, trace, depth + 1)
            for e in range(piece.graph.edge_count):
                net = sub_state.net_edge_flow(e)
                parent_dart = 2 * piece.to_parent_edge[e]
                if net > 0:
                    state.push(parent_dart, net)
                elif net < 0:
                    state.push(parent_dart | 1, -net)
            trace.phase1_done(piece, sub_instance, sub_state)

    boundary = piece.parent_boundary() - sink_set
    _saturate(state, sorted(boundary), source_set, ordered_sinks, engine)
    trace.phase2_done(instance, state)

    drain_excess(state, source_set, sink_set, cancel_flow_cycles(state))
    trace.phase3_done(instance, state)
    return state


def _solve(instance: Instance, params: DivisionParams, engine,
           trace: SolveTrace, depth: int = 0) -> FlowState:
    division = None
    if instance.graph.vertex_count > params.r and instance.sources:
        try:
            division = divide(instance, params)
        except (CannotSatisfyBounds, SeparatorFailed):
            # Degenerate small levels (many super sinks on few vertices) can
            # defeat the bound machinery; source saturation stays correct.
            pass
    if division is None:
        return sequential_saturation(instance, engine)
    state = FlowState.from_instance(instance)
    trace.division_made(instance, division, depth)
    for piece in division.pieces:
        # phase 3 leaves no stray excess or cycle: sourceless pieces do nothing
        if piece.sources:
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
