import hashlib
import random
from collections import deque

import pytest

from planarflow import (DivisionParams, FlowState, Instance, SolveTrace,
                        TooManySinks, build_graph, divide, flow_value,
                        generate_instance, grid_graph, is_max_preflow,
                        load_fig1_fixture, max_st_flow, oracle_value,
                        pairwise_arbitrary_saturation,
                        parse_instance, piece_maxflow, root_piece,
                        sequential_saturation, solve_recursive,
                        validate_flow)
from planarflow import solver
from planarflow.errors import CannotSatisfyBounds, SeparatorFailed
from planarflow.maxflow import SinkLabels, blocking_flow
from conftest import corpus, reaching

SINGLE_EDGE = "plem 2 1\nrot 0 0\nrot 1 1\nedge 0 0 1 9 0\nsrc 0\nsnk 1\n"


def test_single_edge_both_solvers():
    inst = parse_instance(SINGLE_EDGE)
    assert flow_value(sequential_saturation(inst), [1]) == 9
    assert flow_value(solve_recursive(inst), [1]) == 9


def test_solvers_match_oracle(small_corpus):
    for inst in small_corpus:
        want = oracle_value(inst)
        seq = sequential_saturation(inst)
        rec = solve_recursive(inst, DivisionParams(r=24))
        assert flow_value(seq, inst.sinks) == want
        assert flow_value(rec, inst.sinks) == want
        assert validate_flow(inst, seq) == []
        assert validate_flow(inst, rec) == []


def test_sequential_order_invariance_quick():
    rng = random.Random(42)
    for inst in corpus(10, seed0=4000, max_n=80, extra_sinks=2):
        values = set()
        for _ in range(3):
            src = list(inst.sources)
            snk = list(inst.sinks)
            rng.shuffle(src)
            rng.shuffle(snk)
            shuffled = Instance(inst.graph, inst.capacities, src, snk)
            values.add(flow_value(sequential_saturation(shuffled), snk))
        assert len(values) == 1


def test_pairwise_never_beats_oracle(small_corpus):
    rng = random.Random(9)
    for inst in small_corpus[:12]:
        pairs = [(s, t) for s in inst.sources for t in inst.sinks]
        rng.shuffle(pairs)
        state = pairwise_arbitrary_saturation(inst, pairs)
        assert flow_value(state, inst.sinks) <= oracle_value(inst)


def test_pairwise_grouped_order_is_maximal(small_corpus):
    for inst in small_corpus[:12]:
        grouped = [(s, t) for s in inst.sources for t in inst.sinks]
        state = pairwise_arbitrary_saturation(inst, grouped)
        assert flow_value(state, inst.sinks) == oracle_value(inst)


def test_fig1_fixture_values():
    inst, order = load_fig1_fixture()
    assert oracle_value(inst) == 3
    assert flow_value(sequential_saturation(inst), inst.sinks) == 3
    assert flow_value(solve_recursive(inst), inst.sinks) == 3
    assert flow_value(pairwise_arbitrary_saturation(inst, order), inst.sinks) == 2


def test_too_many_sinks_rejected():
    g = grid_graph(4, 4)
    inst = Instance(g, [1] * g.dart_count, [0], list(range(5, 12)))
    with pytest.raises(TooManySinks):
        solve_recursive(inst)


def test_outer_loop_monotonicity():
    """Once a source is exhausted, it stays maximal through all later
    augmentations of the sequential solver. Only an engine call changes
    the state (a push skipped for a dead label changes nothing), so the
    sources before the pushing one are checked at the start of every
    engine call, and all of them once the solve returns."""
    checked = 0

    def check(state, done, sinks):
        nonlocal checked
        for i in range(len(done)):
            ok, _ = is_max_preflow(state, done[: i + 1], sinks)
            assert ok, f"sources {done[: i + 1]} regressed"
        checked += bool(done)

    for inst in corpus(8, seed0=5000, max_n=50, extra_sinks=1):
        order = inst.sources

        def engine(state, s, t, limit=None, labels=None):
            check(state, order[: order.index(s)], inst.sinks)
            return blocking_flow(state, s, t, limit, labels)

        state = sequential_saturation(inst, engine=engine)
        check(state, order, inst.sinks)
    assert checked


def test_piece_with_no_sources_is_noop():
    inst = parse_instance(SINGLE_EDGE)
    level = Instance(inst.graph, inst.capacities, [], [1])
    piece = root_piece(level)
    state = FlowState.from_instance(inst)
    piece_maxflow(piece, state, level)
    assert state.flow == [0, 0]


def test_only_pieces_with_a_source_are_solved():
    """`_solve` skips the pieces of a division that hold no source: their
    three phases would move no flow (see the test above). The phase hooks
    fire once per piece with a source that `division_made` reports."""

    class Counts(SolveTrace):
        pieces = with_source = phase2 = phase3 = 0

        def division_made(self, instance, division, depth=0):
            self.pieces += len(division.pieces)
            self.with_source += sum(1 for p in division.pieces if p.sources)

        def phase2_done(self, instance, state):
            self.phase2 += 1

        def phase3_done(self, instance, state):
            self.phase3 += 1

    counts = Counts()
    for inst in corpus(20, seed0=3000, max_n=150, extra_sinks=2):
        state = solve_recursive(inst, DivisionParams(r=24), trace=counts)
        assert flow_value(state, inst.sinks) == oracle_value(inst)
        assert validate_flow(inst, state) == []
    assert 0 < counts.with_source < counts.pieces
    assert counts.phase2 == counts.phase3 == counts.with_source


def test_boundary_sources_reduce_to_sequential():
    """A piece whose sources all sit on its boundary skips phase 1; the
    result must match plain sequential saturation of those sources."""
    big = corpus(1, seed0=7000, max_n=100)[0]
    division = divide(big, DivisionParams(r=24))
    piece = max(division.pieces, key=lambda pc: len(pc.boundary))
    boundary_parent = sorted(piece.parent_boundary() - set(big.sinks))[:3]
    assert boundary_parent
    inst = Instance(big.graph, big.capacities, boundary_parent, big.sinks)

    state = FlowState.from_instance(inst)
    test_piece = type(piece)(
        piece.graph, piece.to_parent_vertex, piece.to_parent_edge,
        piece.boundary, frozenset(
            v for v in range(piece.size)
            if piece.to_parent_vertex[v] in boundary_parent),
        piece.holes, piece.external)
    piece_maxflow(test_piece, state, inst)
    want = flow_value(sequential_saturation(inst), inst.sinks)
    assert flow_value(state, inst.sinks) == want


def test_phase_hooks_fire_and_preserve_value():
    """Phase 3 keeps the preflow value that phase 2 left, read in
    `phase2_done` on the same state."""
    class Hooks(SolveTrace):
        def __init__(self):
            self.phase1 = 0
            self.phase2 = 0
            self.phase3 = 0
            self.preflow_value = None

        def phase1_done(self, piece, sub_instance, sub_state):
            self.phase1 += 1
            ok, _ = is_max_preflow(sub_state, sub_instance.sources,
                                   sub_instance.sinks)
            assert ok

        def phase2_done(self, instance, state):
            self.phase2 += 1
            self.preflow_value = flow_value(state, instance.sinks)

        def phase3_done(self, instance, state):
            self.phase3 += 1
            assert flow_value(state, instance.sinks) == self.preflow_value
            assert validate_flow(instance, state) == []

    hooks = Hooks()
    inst = corpus(1, seed0=8000, max_n=150)[0]
    solve_recursive(inst, DivisionParams(r=24), trace=hooks)
    assert hooks.phase2 and hooks.phase3 and hooks.phase2 == hooks.phase3


def test_phase_hooks_receive_the_level_instance():
    """Phase-2 and phase-3 hooks get the Instance object of the level the
    piece belongs to; at the top level, the one passed to solve_recursive.
    They fire once each for every piece that holds a source."""

    class Levels(SolveTrace):
        def __init__(self):
            self.levels = []  # (level instance, pieces with a source)
            self.seen = []    # the instance given to each phase-2/3 hook

        def division_made(self, instance, division, depth=0):
            self.levels.append(
                (instance, sum(1 for p in division.pieces if p.sources)))

        def phase2_done(self, instance, state):
            self.seen.append(instance)

        def phase3_done(self, instance, state):
            self.seen.append(instance)

    inst = corpus(1, seed0=8000, max_n=150)[0]
    levels = Levels()
    solve_recursive(inst, DivisionParams(r=24), trace=levels)
    assert levels.levels[0][0] is inst
    for level, pieces in levels.levels:
        assert sum(seen is level for seen in levels.seen) == 2 * pieces
    assert len(levels.seen) == 2 * sum(pieces for _, pieces in levels.levels)


def test_engines_give_same_value_through_solvers(small_corpus):
    """A callable engine is what both solvers call, and it reaches the
    oracle value."""
    calls = 0

    def counting(state, s, t, limit=None, labels=None):
        nonlocal calls
        calls += 1
        return blocking_flow(state, s, t, limit, labels)

    for inst in small_corpus[:6]:
        want = oracle_value(inst)
        for solve in (solve_recursive, sequential_saturation):
            before = calls
            state = solve(inst, engine=counting)
            assert calls > before
            assert flow_value(state, inst.sinks) == want


def _reference(state, s, t, limit=None, labels=None):
    """A fresh Dinic search per push: ignores the shared labels."""
    return blocking_flow(state, s, t, limit)


def test_dead_sets_leave_flows_identical():
    """Sharing labels across pushes changes no flow: both solvers match
    a reference engine that ignores `labels`, also with several sinks,
    where each push loop keeps one label object per sink."""
    params = DivisionParams(r=24)
    for inst in corpus(30, seed0=1000, max_n=60, extra_sinks=2):
        assert (sequential_saturation(inst).flow
                == sequential_saturation(inst, engine=_reference).flow)
        assert (solve_recursive(inst, params).flow
                == solve_recursive(inst, params, engine=_reference).flow)


def _with_zero_and_big_darts(inst, seed):
    """The instance with about 15% of darts at capacity 0 (one-way arcs)
    and 5% at 10^12."""
    rng = random.Random(seed)
    caps = []
    for c in inst.capacities:
        x = rng.random()
        caps.append(0 if x < 0.15 else 10 ** 12 if x < 0.2 else c)
    return Instance(inst.graph, caps, inst.sources, inst.sinks)


@pytest.mark.parametrize("seed0", [3000, 3100, 3200])
def test_shared_labels_match_reference_on_one_way_and_big_arcs(seed0):
    """Both solvers, several sinks, one-way arcs and huge capacities: the
    flow equals the reference engine's dart for dart, has the oracle
    value and is valid."""
    for i, base in enumerate(corpus(12, seed0=seed0, max_n=200,
                                    extra_sinks=2)):
        inst = _with_zero_and_big_darts(base, seed0 + i)
        want = oracle_value(inst)
        for solve, args in ((sequential_saturation, ()),
                            (solve_recursive, (DivisionParams(r=12),)),
                            (solve_recursive, (DivisionParams(r=24),))):
            state = solve(inst, *args)
            assert state.flow == solve(inst, *args, engine=_reference).flow
            assert flow_value(state, inst.sinks) == want
            assert validate_flow(inst, state) == []


def _flow_digest(solve, *args):
    h = hashlib.sha256()
    for i, base in enumerate(corpus(10, seed0=4400, max_n=150, extra_sinks=3)):
        inst = _with_zero_and_big_darts(base, 4400 + i)
        h.update(repr(solve(inst, *args).flow).encode())
    return h.hexdigest()


@pytest.mark.parametrize("solve, args, digest", [
    (sequential_saturation, (),
     "bd13e6162833587a5c71bc1f1afab4edaee5805fa6176f38db64299ef3b56e17"),
    (solve_recursive, (DivisionParams(r=12),),
     "5bc8b242c31d591121b082729beef1f5d4c1287899b84565488e692586a20d48"),
    (solve_recursive, (DivisionParams(r=24),),
     "94368f7fae309bc0b1332b3fbdf5f79af22ef99cc9bb4494e4a7b18375c9645d"),
], ids=["sequential", "recursive-r12", "recursive-r24"])
def test_flows_are_pinned(solve, args, digest):
    """The flows themselves, hashed dart for dart, on several sinks with
    one-way and 10^12 arcs: a change meant to keep every flow identical
    must keep these digests."""
    assert _flow_digest(solve, *args) == digest


def test_stale_labels_are_recomputed():
    """A push into one sink can let a vertex reach another sink that its
    label called unreachable. Trusting such a stale label loses flow on
    this instance (391 of 414)."""
    rng = random.Random(15150)
    kind = rng.choice(["grid", "triangulation"])
    n = rng.randint(8, 40)
    k = rng.randint(1, 6)
    inst = generate_instance(kind, n, 15150, rng.choice([3, 10, 100]), k)
    non_terminals = [v for v in range(inst.graph.vertex_count)
                     if v not in inst.sources and v not in inst.sinks]
    extra = rng.sample(non_terminals,
                       min(len(non_terminals), rng.randint(1, 4)))
    caps = [0 if rng.random() <= 0.3 else c for c in inst.capacities]
    inst = Instance(inst.graph, caps, inst.sources, inst.sinks + extra)
    assert (kind, inst.graph.vertex_count) == ("triangulation", 38)
    assert len(inst.sources) == 4 and len(inst.sinks) == 4
    assert oracle_value(inst) == 414
    state = solve_recursive(inst, DivisionParams(r=12))
    assert flow_value(state, inst.sinks) == 414
    assert validate_flow(inst, state) == []


def test_sequential_skips_sources_cut_off_from_the_sink():
    """After the first exhausting push, sources left behind the min cut are
    known dead and never reach the engine."""
    calls = 0

    def counting(state, s, t, limit=None, labels=None):
        nonlocal calls
        calls += 1
        return blocking_flow(state, s, t, limit, labels)

    inst = generate_instance("grid", 400, 0, 100, 40)
    assert len(inst.sources) == 40 and len(inst.sinks) == 1
    state = sequential_saturation(inst, engine=counting)
    assert flow_value(state, inst.sinks) == oracle_value(inst)
    assert calls < 40


def test_sequential_shares_reverse_searches_across_pushes(monkeypatch):
    """One reverse search from the sink serves many pushes into it: fewer
    searches than (source, sink) pairs."""
    relabels = 0
    relabel = SinkLabels.relabel

    def counting_relabel(self, state, s):
        nonlocal relabels
        relabels += 1
        relabel(self, state, s)

    monkeypatch.setattr(SinkLabels, "relabel", counting_relabel)
    inst = generate_instance("grid", 400, 0, 100, 40)
    state = sequential_saturation(inst)
    assert flow_value(state, inst.sinks) == oracle_value(inst)
    assert 0 < relabels < len(inst.sources) * len(inst.sinks)


def _distances_to(state, t):
    """Residual distance of every vertex to `t` by a plain BFS; the vertex
    count where `t` is unreachable."""
    g = state.graph
    n = g.vertex_count
    dist = [n] * n
    dist[t] = 0
    queue = deque([t])
    while queue:
        w = queue.popleft()
        for d in g.rotations[w]:
            u = g.head(d)
            if dist[u] == n and state.residual(d ^ 1) > 0:
                dist[u] = dist[w] + 1
                queue.append(u)
    return dist


def test_stopped_labels_agree_with_a_full_search(monkeypatch):
    """After every relabel in both solvers' push loops, limited pushes,
    several sinks and one-way and 10^12 arcs included: each vertex within
    ``dist[s]`` of the sink is labelled exactly, every other label is at
    most the true distance, a label n marks a vertex that cannot reach the
    sink, and a search that finds `s` cut off labels every such vertex n."""
    relabel = SinkLabels.relabel
    seen = {"stopped": 0, "ran out": 0, "limited": 0}
    limited = False

    def checked_relabel(self, state, s):
        relabel(self, state, s)
        n = state.graph.vertex_count
        true = _distances_to(state, self.t)
        reach = self.dist[s]
        for v in range(n):
            if true[v] <= reach:
                assert self.dist[v] == true[v], f"vertex {v} mislabelled"
            else:
                assert self.dist[v] <= true[v], f"vertex {v} overestimated"
        labelled_n = {v for v in range(n) if self.dist[v] == n}
        cut_off = {v for v in range(n) if true[v] == n}
        assert labelled_n <= cut_off
        if reach == n:
            assert labelled_n == cut_off
        seen["ran out" if reach == n else "stopped"] += 1
        seen["limited"] += limited

    def engine(state, s, t, limit=None, labels=None):
        nonlocal limited
        limited = limit is not None
        return blocking_flow(state, s, t, limit, labels)

    monkeypatch.setattr(SinkLabels, "relabel", checked_relabel)
    for i, base in enumerate(corpus(20, seed0=1000, max_n=60, extra_sinks=2)):
        inst = _with_zero_and_big_darts(base, 5000 + i)
        sequential_saturation(inst, engine=engine)
        solve_recursive(inst, DivisionParams(r=12), engine=engine)
    assert min(seen.values()) > 0, seen


def test_push_next_to_the_sink_stops_the_reverse_search():
    """On a 2 x 40 grid, a push from a neighbour of the sink labels exactly
    only the vertices within one arc of it and every other vertex 2, not
    its true distance."""
    g = grid_graph(2, 40)
    state = FlowState(g, [5] * g.dart_count)
    t, s = 0, 1
    labels = SinkLabels(t)
    assert max_st_flow(state, s, t, limit=3, labels=labels) == 3
    true = _distances_to(state, t)
    assert max(true) == 40
    assert [v for v in range(g.vertex_count) if labels.dist[v] < 2] == [0, 1, 40]
    assert all(labels.dist[v] == min(true[v], 2) for v in range(g.vertex_count))


def _solve_both(inst, engine, trace=solver.NO_TRACE):
    sequential_saturation(inst, engine=engine)
    solve_recursive(inst, DivisionParams(r=24), engine=engine, trace=trace)


def test_no_vertex_is_searched_again_towards_a_sink():
    """Within one push loop the engine is called at most once per vertex
    and sink, never for a vertex whose label towards that sink is
    infinite, and each call ends with the limit met or the vertex's label
    infinite. Each vertex moves on to the next sink only
    once it cannot reach the current one; this pins that loop order."""
    searched: dict[int, tuple[SinkLabels, set[int]]] = {}

    def engine(state, s, t, limit=None, labels=None):
        # the strong reference keeps id(labels) from being reused
        _, sources = searched.setdefault(id(labels), (labels, set()))
        assert s not in sources, f"vertex {s} searched again towards {t}"
        sources.add(s)
        n = state.graph.vertex_count
        if labels.dist is not None:
            assert labels.dist[s] < n, f"dead vertex {s} searched towards {t}"
        value = blocking_flow(state, s, t, limit, labels)
        assert value == limit or labels.dist[s] == n
        return value

    for inst in corpus(30, seed0=1000, max_n=60, extra_sinks=2):
        _solve_both(inst, engine)
    assert searched


def test_dead_sets_stay_true_through_the_push_loop():
    """After every push, no vertex whose label is infinite reaches that
    label's sink, the kept labels of the running push loop's other sinks
    included. Only an engine call changes the state or sets a label (a
    push skipped for a dead label changes nothing), so each loop's labels
    are checked at the start of every engine call and once more where the
    loop ends: at `phase2_done`, or when the solve returns."""
    loops: dict[int, tuple[FlowState, dict[int, SinkLabels]]] = {}
    checked = 0

    def check(state, loop):
        nonlocal checked
        n = state.graph.vertex_count
        for labels in loop.values():
            if labels.dist is None:
                continue
            dead = {v for v in range(n) if labels.dist[v] == n}
            assert not dead & reaching(state, labels.t), \
                f"a vertex known dead reaches {labels.t}"
        checked += 1

    def engine(state, s, t, limit=None, labels=None):
        _, loop = loops.setdefault(id(state), (state, {}))
        loop[id(labels)] = labels
        check(state, loop)
        return blocking_flow(state, s, t, limit, labels)

    class LoopEnds(SolveTrace):
        def phase2_done(self, instance, state):
            # phases 1 and 3 of the next piece change this state freely
            if id(state) in loops:
                check(*loops.pop(id(state)))

    for inst in corpus(30, seed0=1000, max_n=60, extra_sinks=2):
        _solve_both(inst, engine, LoopEnds())
        # the base cases' loops: their states are not pushed on again
        for state, loop in loops.values():
            check(state, loop)
        loops.clear()
    assert checked


def test_division_fallback_saturates_to_the_oracle_value(monkeypatch):
    """When `divide` cannot meet the bounds, `_solve` saturates the level's
    sources instead; the flow stays maximum and valid."""
    fallbacks = 0
    divide_level = solver.divide

    def counting_divide(instance, params):
        nonlocal fallbacks
        try:
            return divide_level(instance, params)
        except (CannotSatisfyBounds, SeparatorFailed):
            fallbacks += 1
            raise

    monkeypatch.setattr(solver, "divide", counting_divide)
    params = DivisionParams(r=12, boundary_coeff=1.0)
    for inst in corpus(20, seed0=0, max_n=150, extra_sinks=2):
        state = solve_recursive(inst, params)
        assert flow_value(state, inst.sinks) == oracle_value(inst)
        assert validate_flow(inst, state) == []
    assert fallbacks


@pytest.mark.parametrize("r", [12, 24])
def test_division_never_falls_back_with_default_bounds(monkeypatch, r):
    """With the default boundary coefficient every level divides: a worse
    separator would otherwise show only as a silent drop to saturation."""
    failures = []
    divide_level = solver.divide

    def recording_divide(instance, params):
        try:
            return divide_level(instance, params)
        except (CannotSatisfyBounds, SeparatorFailed) as exc:
            failures.append(
                f"level of size {instance.graph.vertex_count}: {exc}")
            raise

    monkeypatch.setattr(solver, "divide", recording_divide)
    for inst in corpus(40, seed0=0, max_n=150, extra_sinks=2):
        state = solve_recursive(inst, DivisionParams(r=r))
        assert flow_value(state, inst.sinks) == oracle_value(inst)
        assert validate_flow(inst, state) == []
    assert failures == []


def _disjoint_union(a: Instance, b: Instance) -> Instance:
    """One instance holding `a` and `b` side by side, unconnected."""
    n, m = a.graph.vertex_count, a.graph.edge_count
    edges = a.graph.edges + [(u + n, v + n) for u, v in b.graph.edges]
    rotations = a.graph.rotations + [[d + 2 * m for d in rot]
                                     for rot in b.graph.rotations]
    return Instance(build_graph(n + b.graph.vertex_count, edges, rotations),
                    a.capacities + b.capacities,
                    a.sources + [s + n for s in b.sources],
                    a.sinks + [t + n for t in b.sinks])


def test_disconnected_instance_divides_into_connected_pieces():
    """Two disjoint grids as one instance: the root level is split into
    its components before any separator, every piece is connected, and
    the flow is maximum and valid."""
    divisions = []

    class Divisions(SolveTrace):
        def division_made(self, instance, division, depth=0):
            divisions.append((instance.graph.component_count, division))

    inst = _disjoint_union(generate_instance("grid", 150, 1, 100, 5),
                           generate_instance("grid", 120, 2, 100, 4))
    state = solve_recursive(inst, DivisionParams(r=24), trace=Divisions())
    assert flow_value(state, inst.sinks) == oracle_value(inst)
    assert validate_flow(inst, state) == []
    assert divisions[0][0] == 2
    for _, division in divisions:
        assert all(piece.graph.connected for piece in division.pieces)


def test_cycle_canceller_fire_count_reported():
    """The conversion keeps a cycle canceller in the pipeline; this reports
    how often it fires across a corpus. Superposing the flows of several
    pieces creates cycles, so it must fire."""
    class SubLevels(SolveTrace):
        fired = 0

        def phase1_done(self, piece, sub_instance, sub_state):
            # every recursion level solves its phase-1 sub-instance on its
            # own FlowState; count its cancellations too
            self.fired += sub_state.cancelled_cycles

    sub_levels = SubLevels()
    fired = 0
    solves = 0
    for inst in corpus(40, seed0=12_000, max_n=120):
        state = solve_recursive(inst, DivisionParams(r=24), trace=sub_levels)
        fired += state.cancelled_cycles
        solves += 1
    fired += sub_levels.fired
    print(f"[report] cycle canceller fired {fired} times "
          f"across {solves} recursive solves")
    assert fired > 0
