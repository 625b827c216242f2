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
from planarflow.maxflow import SinkLabels, blocking_flow, reaches_a_sink
from conftest import corpus, reaching, thin_sources

SINGLE_EDGE = "plem 2 1\nrot 0 0\nrot 1 1\nedge 0 0 1 9 0\nsrc 0\nsnk 1\n"


def test_single_edge_both_solvers():
    inst = parse_instance(SINGLE_EDGE)
    assert flow_value(sequential_saturation(inst), [1]) == 9
    assert flow_value(solve_recursive(inst), [1]) == 9


def test_solvers_match_oracle(small_corpus):
    for inst in small_corpus:
        want = oracle_value(inst)
        seq = sequential_saturation(inst)
        assert flow_value(seq, inst.sinks) == want
        assert validate_flow(inst, seq) == []
        for params in (DivisionParams(r=24), DivisionParams(r=24, budget=0)):
            rec = solve_recursive(inst, params)
            assert flow_value(rec, inst.sinks) == want
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


def _live(state, sinks) -> set[int]:
    """The vertices that reach some sink along residual darts."""
    return set().union(*(reaching(state, t) for t in sinks))


def test_only_pieces_with_a_source_are_solved():
    """`_solve` runs a piece's phases only if it holds a source that still
    reaches a sink at its turn: the other pieces with a source would move
    no flow to a sink, and sourceless pieces none at all (see the test
    above). Replayed from the hooks alone: at each level's division and
    after each phase 3, the pieces whose sources reach no sink in the
    level's state are skipped, and the next phase hooks of that level
    belong to the piece after them."""

    class Replay(SolveTrace):
        def __init__(self):
            self.levels = {}  # id(level) -> (level, the source sets to come)
            self.pieces = self.with_source = self.solved = self.skipped = 0

        def _skip_cut_off(self, level, state):
            pending = self.levels[id(level)][1]
            live = _live(state, level.sinks)
            while pending and not pending[0] & live:
                pending.popleft()
                self.skipped += 1

        def division_made(self, instance, division, depth=0):
            self.pieces += len(division.pieces)
            pending = deque({p.to_parent_vertex[v] for v in p.sources}
                            for p in division.pieces if p.sources)
            self.with_source += len(pending)
            self.levels[id(instance)] = (instance, pending)
            self._skip_cut_off(instance, FlowState.from_instance(instance))

        def phase2_done(self, instance, state):
            assert self.levels[id(instance)][1], \
                "phases fired for a piece whose sources reach no sink"

        def phase3_done(self, instance, state):
            self.levels[id(instance)][1].popleft()
            self.solved += 1
            self._skip_cut_off(instance, state)

    replay = Replay()
    for inst in corpus(20, seed0=3000, max_n=150, extra_sinks=2):
        state = solve_recursive(inst, DivisionParams(r=24, budget=0),
                                trace=replay)
        assert flow_value(state, inst.sinks) == oracle_value(inst)
        assert validate_flow(inst, state) == []
        assert not any(pending for _, pending in replay.levels.values())
        replay.levels.clear()
    assert replay.solved + replay.skipped == replay.with_source
    assert 0 < replay.solved and 0 < replay.skipped
    assert replay.with_source < replay.pieces


def test_piece_cut_off_by_an_earlier_piece_is_skipped():
    """On a unit-capacity 12 x 12 grid whose sink is a corner, the first
    piece that holds a source saturates the sink's two in-arcs. The later
    pieces with a source are then cut off and fire no hook, and the flow
    is still maximum."""

    class Hooks(SolveTrace):
        def __init__(self):
            self.with_source = self.divisions = 0
            self.phases = []

        def division_made(self, instance, division, depth=0):
            self.divisions += 1
            self.with_source += sum(1 for p in division.pieces if p.sources)

        def phase1_done(self, piece, sub_instance, sub_state):
            self.phases.append(1)

        def phase2_done(self, instance, state):
            self.phases.append(2)

        def phase3_done(self, instance, state):
            self.phases.append(3)

    g = grid_graph(12, 12)
    inst = Instance(g, [1] * g.dart_count, [30, 77, 100, 140], [0])
    hooks = Hooks()
    state = solve_recursive(inst, DivisionParams(r=24, budget=0), trace=hooks)
    assert hooks.divisions == 1 and hooks.with_source == 4
    assert hooks.phases == [2, 3]
    assert flow_value(state, inst.sinks) == oracle_value(inst) == 2
    ok, _ = is_max_preflow(state, inst.sources, inst.sinks)
    assert ok


@pytest.mark.parametrize("r", [12, 24])
@pytest.mark.parametrize("variant", ["plain", "zero-and-big", "thin-sources"])
def test_cut_off_sources_stay_cut_off(variant, r):
    """Hooks only, several sinks: per level instance, the set of level
    sources that reach no sink only grows, from the level's zero flow
    through each `phase3_done`. Every solve has the oracle value and a
    valid flow, and some pieces with a source are skipped: fewer phase
    hooks fire than there are such pieces."""

    class Dead(SolveTrace):
        def __init__(self):
            self.dead = {}  # id(level) -> (level, its sources reaching no sink)
            self.with_source = self.phase3 = 0

        def _grow(self, level, state):
            dead = set(level.sources) - _live(state, level.sinks)
            before = self.dead.get(id(level), (level, set()))[1]
            assert before <= dead, f"sources {before - dead} reach a sink again"
            self.dead[id(level)] = (level, dead)

        def division_made(self, instance, division, depth=0):
            self.with_source += sum(1 for p in division.pieces if p.sources)
            self._grow(instance, FlowState.from_instance(instance))

        def phase3_done(self, instance, state):
            self.phase3 += 1
            self._grow(instance, state)

    dead = Dead()
    for i, base in enumerate(corpus(20, seed0=3000, max_n=150,
                                    extra_sinks=2)):
        inst = {"plain": base,
                "zero-and-big": _with_zero_and_big_darts(base, 3000 + i),
                "thin-sources": thin_sources(base)}[variant]
        state = solve_recursive(inst, DivisionParams(r=r, budget=0),
                                trace=dead)
        assert flow_value(state, inst.sinks) == oracle_value(inst)
        assert validate_flow(inst, state) == []
        dead.dead.clear()
    assert 0 < dead.phase3 < dead.with_source


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
    solve_recursive(inst, DivisionParams(r=24, budget=0), trace=hooks)
    assert hooks.phase2 and hooks.phase3 and hooks.phase2 == hooks.phase3


def test_phase_hooks_receive_the_level_instance():
    """Phase-2 and phase-3 hooks get the Instance object of the level the
    piece belongs to; at the top level, the one passed to solve_recursive.
    They fire in pairs, one pair per solved piece, so at most once each
    for every piece that holds a source: a piece whose sources reach no
    sink is skipped (see `test_only_pieces_with_a_source_are_solved`)."""

    class Levels(SolveTrace):
        def __init__(self):
            self.levels = []  # (level instance, pieces with a source)
            self.seen = []    # (hook, the instance given to it)

        def division_made(self, instance, division, depth=0):
            self.levels.append(
                (instance, sum(1 for p in division.pieces if p.sources)))

        def phase2_done(self, instance, state):
            self.seen.append((2, instance))

        def phase3_done(self, instance, state):
            self.seen.append((3, instance))

    inst = corpus(1, seed0=8000, max_n=150)[0]
    levels = Levels()
    solve_recursive(inst, DivisionParams(r=24, budget=0), trace=levels)
    assert levels.levels[0][0] is inst
    hooks = [hook for hook, _ in levels.seen]
    assert hooks and hooks == [2, 3] * (len(hooks) // 2)
    assert all(a is b for (_, a), (_, b)
               in zip(levels.seen[::2], levels.seen[1::2]))
    solved = [instance for hook, instance in levels.seen if hook == 3]
    for level, pieces in levels.levels:
        assert sum(seen is level for seen in solved) <= pieces
    assert all(any(seen is level for level, _ in levels.levels)
               for seen in solved)
    assert any(seen is inst for seen in solved)


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
    where each push loop keeps one label object for the sink set."""
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


class _AnyHook(SolveTrace):
    """Records the name of every hook that fires."""

    def __init__(self):
        self.fired = []

    def division_made(self, instance, division, depth=0):
        self.fired.append("division_made")

    def phase1_done(self, piece, sub_instance, sub_state):
        self.fired.append("phase1_done")

    def phase2_done(self, instance, state):
        self.fired.append("phase2_done")

    def phase3_done(self, instance, state):
        self.fired.append("phase3_done")


def test_one_source_level_is_saturated_not_divided():
    """A level with one source above `r` vertices is solved by saturation:
    on several sinks with one-way and 10^12 arcs, the recursive flow is
    sequential saturation's dart for dart, and no hook fires."""
    params = DivisionParams(r=12)
    solved = 0
    for i, base in enumerate(corpus(16, seed0=6100, max_n=200, max_sources=1,
                                    extra_sinks=2)):
        inst = _with_zero_and_big_darts(base, 6100 + i)
        assert len(inst.sources) == 1 and len(inst.sinks) > 1
        if inst.graph.vertex_count <= params.r:
            continue
        hooks = _AnyHook()
        state = solve_recursive(inst, params, trace=hooks)
        assert state.flow == sequential_saturation(inst).flow
        assert hooks.fired == []
        solved += 1
    assert solved >= 12


@pytest.mark.parametrize("variant", ["plain", "thin-sources"])
def test_every_division_has_two_sources(variant):
    """Every level that `_solve` divides, at every depth and at budgets 0,
    1 and 8, holds two sources that still reach a sink once its own
    budget's loop has run from its zero flow, the state it is divided on;
    and phase-1 sub-instances are still divided."""

    class Divisions(SolveTrace):
        def __init__(self):
            self.depths = []

        def division_made(self, level, division, depth=0):
            state = FlowState.from_instance(level)
            done = solver._saturate(state, level.sources, set(level.sources),
                                    level.sinks, None, budget)
            assert reaches_a_sink(state, level.sources[done:], level.sinks, 2)
            self.depths.append(depth)

    divisions = Divisions()
    for budget in (0, 1, 8):
        for base in corpus(12, seed0=6200, max_n=200, max_sources=40,
                           extra_sinks=2):
            inst = base if variant == "plain" else thin_sources(base)
            state = solve_recursive(inst, DivisionParams(r=12, budget=budget),
                                    trace=divisions)
            assert flow_value(state, inst.sinks) == oracle_value(inst)
            assert validate_flow(inst, state) == []
    assert any(depth >= 1 for depth in divisions.depths)


def _flow_digest(solve, args, extra_sinks):
    h = hashlib.sha256()
    for i, base in enumerate(corpus(10, seed0=4400, max_n=150,
                                    extra_sinks=extra_sinks)):
        inst = _with_zero_and_big_darts(base, 4400 + i)
        h.update(repr(solve(inst, *args).flow).encode())
    return h.hexdigest()


@pytest.mark.parametrize("solve, args, extra_sinks, digest", [
    (sequential_saturation, (), 3,
     "9d8ab99a4b0c0526948ee209b994479a3d2cb752ae6e7f3a4907a40e262ea289"),
    (solve_recursive, (DivisionParams(r=12, budget=0),), 3,
     "b3e252e295281cf0025756f2ed38bd5b86ade289dece4b8df1c9248f1548e0e9"),
    (solve_recursive, (DivisionParams(r=24, budget=0),), 3,
     "c77f6c3254d5205d789d850ae5fc9f4945f3f0d1eed130cd1a636021442db0af"),
    (sequential_saturation, (), 0,
     "05f7878629675b52e9363afc316153656419a1ad0ef98924d86810ea882d39c9"),
    (solve_recursive, (DivisionParams(),), 0,
     "05f7878629675b52e9363afc316153656419a1ad0ef98924d86810ea882d39c9"),
], ids=["sequential", "recursive-r12", "recursive-r24", "one-sink-sequential",
        "one-sink-recursive"])
def test_flows_are_pinned(solve, args, extra_sinks, digest):
    """The flows themselves, hashed dart for dart, with one-way and 10^12
    arcs: a change meant to keep every flow identical must keep these
    digests. The one-sink entries, sequential and at the default params,
    push into one sink at every level, so their flows do not depend on
    how a push loop treats a set of sinks."""
    assert _flow_digest(solve, args, extra_sinks) == digest


class _TopDivisions(SolveTrace):
    """Counts the divisions of top levels."""

    def __init__(self):
        self.count = 0

    def division_made(self, instance, division, depth=0):
        self.count += depth == 0


def test_budget_interpolates_between_the_solvers(monkeypatch):
    """Every push budget gives a maximum, valid flow on several sinks,
    one-way and 10^12 arcs and thin sources included, also where the top
    level is divided after the budget. A budget no solve can spend is
    sequential saturation dart for dart. A budget of 0 is the recursion
    without one: `test_flows_are_pinned` pins its flows to the digests
    the solver had before the budget existed. A solve with a budget that
    divides no level is one push loop on one set of labels: sequential
    saturation's flow, with as many reverse searches."""
    relabel = SinkLabels.relabel
    relabels = 0

    def counting_relabel(self, state, s):
        nonlocal relabels
        relabels += 1
        relabel(self, state, s)

    monkeypatch.setattr(SinkLabels, "relabel", counting_relabel)
    divided = {}
    undivided = 0
    for i, base in enumerate(corpus(12, seed0=4600, max_n=150,
                                    extra_sinks=2)):
        for variant, inst in (
                ("plain", base),
                ("zero-and-big", _with_zero_and_big_darts(base, 4600 + i)),
                ("thin-sources", thin_sources(base))):
            want = oracle_value(inst)
            relabels = 0
            sequential = sequential_saturation(inst)
            sequential_relabels = relabels
            for budget in (0, 1, 2, 8, 10 ** 9):
                top = _TopDivisions()
                relabels = 0
                state = solve_recursive(
                    inst, DivisionParams(r=12, budget=budget), trace=top)
                assert flow_value(state, inst.sinks) == want
                assert validate_flow(inst, state) == []
                assert is_max_preflow(state, inst.sources, inst.sinks)[0]
                divided[budget] = divided.get(budget, 0) + top.count
                if budget in (1, 2, 8) and not top.count:
                    assert state.flow == sequential.flow
                    assert relabels == sequential_relabels
                    undivided += 1
            assert state.flow == sequential.flow
    print(f"[report] top levels divided per budget: {divided}; "
          f"{undivided} solves at b in (1, 2, 8) divide none")
    assert divided[1] > 0 and divided[10 ** 9] == 0


def test_budget_counts_sources_not_pushes():
    """The push budget counts vertices whose push added flow. On a path
    whose first source feeds two sinks, a budget of 2 finishes two
    sources, and that source's one push fills both sinks' arcs."""
    # the path 1 - 0 - 2 - 3 - 4 - 5, capacity 5 both ways
    edges = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)]
    rotations = [[0, 2], [1], [3, 4], [5, 6], [7, 8], [9]]
    inst = Instance(build_graph(6, edges, rotations), [5] * 10,
                    [0, 3, 5], [1, 2, 4])
    for budget, finished in ((1, 1), (2, 2), (3, 3)):
        state = FlowState.from_instance(inst)
        assert solver._saturate(state, inst.sources, set(inst.sources),
                                inst.sinks, None, budget) == finished
    state = FlowState.from_instance(inst)
    solver._saturate(state, [0], {0}, inst.sinks, None)
    assert flow_value(state, [1]) == flow_value(state, [2]) == 5


def test_sequential_pushes_each_source_once_into_the_sink_set():
    """On 5-sink triangulations sequential saturation calls the engine at
    most once per source: a source pushes into the sink set, not sink by
    sink, so its call count does not grow with the number of sinks."""
    calls = 0

    def counting(state, s, t, limit=None, labels=None):
        nonlocal calls
        calls += 1
        return blocking_flow(state, s, t, limit, labels)

    sources = pairs = 0
    for seed in range(7000, 7012):
        base = generate_instance("triangulation", 200, seed, 100, 16)
        rng = random.Random(f"five-sinks:{seed}")
        free = [v for v in range(base.graph.vertex_count)
                if v not in base.sources and v not in base.sinks]
        inst = Instance(base.graph, base.capacities, base.sources,
                        base.sinks + rng.sample(free, 4))
        assert len(inst.sinks) == 5
        before = calls
        state = sequential_saturation(inst, engine=counting)
        assert flow_value(state, inst.sinks) == oracle_value(inst)
        assert validate_flow(inst, state) == []
        assert 0 < calls - before <= len(inst.sources)
        sources += len(inst.sources)
        pairs += len(inst.sources) * len(inst.sinks)
    print(f"[report] engine calls on 12 5-sink triangulations: {calls} for "
          f"{sources} sources ({pairs} source-sink pairs)")


def test_stale_labels_are_recomputed():
    """A push loop that kept one label set per sink, and trusted a label
    towards one sink after a push into another, lost flow on this
    instance (391 of 414). Labels of the whole sink set have no such
    case, and the value holds."""
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
    state = solve_recursive(inst, DivisionParams(r=12, budget=0))
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


def test_blocked_search_does_not_relabel_a_cut_off_vertex(monkeypatch):
    """On thin sources each source's darts out fill up: a search blocked
    at such a source labels it cut off without a reverse search, in both
    solvers. Labels that do not exist yet start at 0 on the sinks and 1
    elsewhere, so a source's first search is blocked at once unless a
    residual dart leads it into a sink, and then takes the same branch: no
    relabel at all runs for a vertex that no residual dart leaves."""
    relabel = SinkLabels.relabel
    relabels = 0

    def checked_relabel(self, state, s):
        nonlocal relabels
        relabels += 1
        assert any(state.residual(d) > 0
                   for d in state.graph.rotations[s]), \
            f"relabel for vertex {s}, which no residual dart leaves"
        relabel(self, state, s)

    monkeypatch.setattr(SinkLabels, "relabel", checked_relabel)
    inst = thin_sources(generate_instance("grid", 400, 0, 100, 40))
    want = oracle_value(inst)
    for state in (sequential_saturation(inst),
                  solve_recursive(inst, DivisionParams(r=32))):
        assert flow_value(state, inst.sinks) == want
    assert relabels


def _distances_to(state, sinks):
    """Residual distance of every vertex to the nearest of `sinks` by a
    plain BFS; the vertex count where no sink is reachable."""
    g = state.graph
    n = g.vertex_count
    dist = [n] * n
    for t in sinks:
        dist[t] = 0
    queue = deque(sinks)
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
    ``dist[s]`` of the sink set is labelled exactly with its distance to
    the nearest sink, every other label is at most that distance, a label
    n marks a vertex that cannot reach any sink, and a search that finds
    `s` cut off labels every such vertex n."""
    relabel = SinkLabels.relabel
    seen = {"stopped": 0, "ran out": 0, "limited": 0}
    limited = False

    def checked_relabel(self, state, s):
        relabel(self, state, s)
        n = state.graph.vertex_count
        true = _distances_to(state, self.sinks)
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
        solve_recursive(inst, DivisionParams(r=12, budget=0), engine=engine)
    assert min(seen.values()) > 0, seen


def test_push_next_to_the_sink_stops_the_reverse_search(monkeypatch):
    """On a 2 x 40 grid with the sink at a corner, fresh labels let a
    neighbour of the sink push with no relabel at all. A push from a
    vertex two arcs away is blocked on them once; its reverse search then
    stops at that vertex's level: it labels exactly only the vertices
    within two arcs of the sink and every other vertex 3, not its true
    distance."""
    relabel = SinkLabels.relabel
    relabels = 0

    def counting_relabel(self, state, s):
        nonlocal relabels
        relabels += 1
        relabel(self, state, s)

    monkeypatch.setattr(SinkLabels, "relabel", counting_relabel)
    g = grid_graph(2, 40)
    t = 0
    state = FlowState(g, [5] * g.dart_count)
    labels = SinkLabels(t)
    assert max_st_flow(state, 1, t, limit=3, labels=labels) == 3
    assert relabels == 0
    assert labels.dist == [0] + [1] * (g.vertex_count - 1)

    state = FlowState(g, [5] * g.dart_count)
    labels = SinkLabels(t)
    assert max_st_flow(state, 2, t, limit=3, labels=labels) == 3
    assert relabels == 1
    true = _distances_to(state, [t])
    assert max(true) == 40
    assert ([v for v in range(g.vertex_count) if labels.dist[v] < 3]
            == [0, 1, 2, 40, 41])
    assert all(labels.dist[v] == min(true[v], 3) for v in range(g.vertex_count))


def _solve_both(inst, engine, trace=solver.NO_TRACE):
    sequential_saturation(inst, engine=engine)
    solve_recursive(inst, DivisionParams(r=24, budget=0), engine=engine,
                    trace=trace)


def test_no_vertex_is_searched_again_towards_a_sink():
    """Within one push loop, on its one label set, the engine is called at
    most once per vertex, however many sinks there are, never for a vertex
    whose label is infinite, and each call ends with the limit met or the
    vertex's label infinite."""
    searched: dict[int, tuple[SinkLabels, set[int]]] = {}

    def engine(state, s, t, limit=None, labels=None):
        # the strong reference keeps id(labels) from being reused
        _, sources = searched.setdefault(id(labels), (labels, set()))
        assert s not in sources, f"vertex {s} searched again in one loop"
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
    """After every push, no vertex whose label is infinite reaches any
    sink of that label set. Only an engine call changes the state or sets
    a label (a push skipped for a dead label changes nothing), so each
    loop's labels are checked at the start of every engine call and once
    more where the loop ends: at `phase2_done`, or when the solve
    returns."""
    loops: dict[int, tuple[FlowState, dict[int, SinkLabels]]] = {}
    checked = 0

    def check(state, loop):
        nonlocal checked
        n = state.graph.vertex_count
        for labels in loop.values():
            if labels.dist is None:
                continue
            dead = {v for v in range(n) if labels.dist[v] == n}
            assert not dead & _live(state, labels.sinks), \
                f"a vertex known dead reaches one of {labels.sinks}"
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
    sources instead; the flow stays maximum and valid. At every level the
    fallback continues on the state that level's budget loop left, as one
    more push loop over the remaining sources, on the same labels; at the
    top level the flow is then sequential saturation's dart for dart.
    (At b=8 this corpus's top levels all finish by saturation; at b=1 one
    divides after the budget, and falls back.)"""
    fallbacks = []
    divide_level = solver.divide
    saturate = solver._saturate
    loops = []  # the states of the push loops run on the top level's graph

    def counting_divide(instance, params):
        try:
            return divide_level(instance, params)
        except (CannotSatisfyBounds, SeparatorFailed):
            fallbacks.append(instance)
            raise

    def recording_saturate(state, vertices, sources, sinks, engine,
                           budget=None, labels=None):
        if state.graph is top.graph:
            loops.append(state)
        return saturate(state, vertices, sources, sinks, engine, budget,
                        labels)

    monkeypatch.setattr(solver, "divide", counting_divide)
    monkeypatch.setattr(solver, "_saturate", recording_saturate)
    fell_back = {0: 0, 1: 0, 8: 0}
    resumed = dict(fell_back)
    for budget in fell_back:
        params = DivisionParams(r=12, sink_bound=3, budget=budget)
        for top in corpus(20, seed0=0, max_n=150, extra_sinks=2):
            fallbacks.clear()
            loops.clear()
            state = solve_recursive(top, params)
            assert flow_value(state, top.sinks) == oracle_value(top)
            assert validate_flow(top, state) == []
            fell_back[budget] += len(fallbacks)
            if budget and any(level is top for level in fallbacks):
                # the budget's loop and the fallback's, on one state
                assert len(loops) == 2 and all(s is state for s in loops)
                assert state.flow == sequential_saturation(top).flow
                resumed[budget] += 1
    assert fell_back[0] > 0 and resumed[1] > 0


@pytest.mark.parametrize("r", [12, 24])
def test_division_never_falls_back_with_default_bounds(monkeypatch, r):
    """With the default `t` every level divides: a worse
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
        state = solve_recursive(inst, DivisionParams(r=r, budget=0))
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
    state = solve_recursive(inst, DivisionParams(r=24, budget=0),
                            trace=Divisions())
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
        state = solve_recursive(inst, DivisionParams(r=24, budget=0),
                                trace=sub_levels)
        fired += state.cancelled_cycles
        solves += 1
    fired += sub_levels.fired
    print(f"[report] cycle canceller fired {fired} times "
          f"across {solves} recursive solves")
    assert fired > 0
