import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarflow import (Cut, CyclicSupport, FlowState, cancel_flow_cycles,
                        check_cut_saturated, cut_from_side, drain_excess,
                        flow_value, generate_instance, grid_graph,
                        is_max_preflow, max_st_flow, parse_instance,
                        residual_reachable)

SINGLE_EDGE = "plem 2 1\nrot 0 0\nrot 1 1\nedge 0 0 1 5 0\nsrc 0\nsnk 1\n"


def _naive_excess(state):
    g = state.graph
    ex = [0] * g.vertex_count
    for d, f in enumerate(state.flow):
        ex[g.head(d)] += f
        ex[g.tail(d)] -= f
    return ex


def _random_pushes(state, rng, rounds, starts, avoid=()):
    """Drive a preflow by pushing along random residual paths from `starts`.

    Starting at sources keeps excess nonnegative away from the terminals,
    which is what makes the result a preflow rather than an arbitrary
    pseudoflow.
    """
    g = state.graph
    for _ in range(rounds):
        v = rng.choice(starts)
        path = []
        seen = {v}
        for _ in range(rng.randint(1, 6)):
            darts = [d for d in g.rotations[v]
                     if state.residual(d) > 0 and g.head(d) not in seen
                     and g.head(d) not in avoid]
            if not darts:
                break
            d = rng.choice(darts)
            path.append(d)
            v = g.head(d)
            seen.add(v)
        if path:
            amount = rng.randint(1, min(state.residual(d) for d in path))
            for d in path:
                state.push(d, amount)


def test_residual_basics():
    st_ = FlowState.from_instance(parse_instance(SINGLE_EDGE))
    assert st_.residual(0) == 5 and st_.residual(1) == 0
    st_.push(0, 5)
    assert st_.residual(0) == 0
    assert st_.residual(1) == 5  # reverse gains what the forward lost
    with pytest.raises(ValueError, match="one capacity per dart"):
        FlowState(st_.graph, [5])


def test_push_respects_normal_form():
    st_ = FlowState.from_instance(parse_instance(SINGLE_EDGE))
    st_.push(0, 5)
    st_.push(1, 3)
    assert st_.flow == [2, 0]
    with pytest.raises(ValueError):
        st_.push(0, 99)


def test_residual_matches_naive_recomputation():
    rng = random.Random(0)
    inst = generate_instance("triangulation", 30, 0, 9, 1)
    state = FlowState.from_instance(inst)
    _random_pushes(state, rng, 60, starts=list(range(inst.graph.vertex_count)))
    for d in range(inst.graph.dart_count):
        naive = inst.capacities[d] - state.flow[d] + state.flow[d ^ 1]
        assert state.residual(d) == naive
    assert state.excess == _naive_excess(state)


def test_is_max_preflow_witness():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    ok, witness = is_max_preflow(state, [0], [1])
    assert not ok and witness == [0, 1]
    state.push(0, 5)
    ok, witness = is_max_preflow(state, [0], [1])
    assert ok and witness is None


def test_excess_vertex_counts_as_seed():
    g = grid_graph(1, 3)  # 0-1-2
    state = FlowState(g, [3, 3, 3, 3])
    state.push(0, 2)  # excess parked at vertex 1
    ok, witness = is_max_preflow(state, [], [2])
    assert not ok and witness == [1, 2]


def test_check_cut_saturated():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    empty_a = Cut(frozenset(), frozenset({0, 1}))
    assert check_cut_saturated(state, empty_a)
    st_cut = cut_from_side(inst.graph, [0])
    assert not check_cut_saturated(state, st_cut)
    state.push(0, 5)
    assert check_cut_saturated(state, st_cut)
    with pytest.raises(ValueError, match="cut sides overlap"):
        Cut(frozenset({0}), frozenset({0, 1}))


def test_min_cut_of_solved_instance_is_saturated(small_corpus):
    for inst in small_corpus[:10]:
        state = FlowState.from_instance(inst)
        s = inst.sources[0]
        max_st_flow(state, s, inst.sinks[0])
        cut = cut_from_side(inst.graph, residual_reachable(state, s))
        assert inst.sinks[0] in cut.b
        assert check_cut_saturated(state, cut)


def test_cancel_noop_on_acyclic():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    state.push(0, 3)
    before = list(state.flow)
    cancel_flow_cycles(state)
    assert state.flow == before and state.cancelled_cycles == 0


def test_cancel_hand_built_cycle():
    # triangle cycle of 2 units plus an s->t spur: 0->1->2->0 and 0->3
    g = grid_graph(2, 2)  # edges: (0,1) (0,2) (1,3) (2,3)
    caps = [9] * g.dart_count
    state = FlowState(g, caps)
    # cycle 0 ->1 ->3 ->2 ->0 of 2 units
    for d in (0, 4, 7, 3):
        state.push(d, 2)
    # path 0 -> 1 -> 3 of 1 unit
    state.push(0, 1)
    state.push(4, 1)
    value_before = flow_value(state, [3])
    excess_before = list(state.excess)
    cancel_flow_cycles(state)
    assert state.cancelled_cycles == 1
    assert state.excess == excess_before
    assert flow_value(state, [3]) == value_before
    assert state.flow[0] == 1 and state.flow[4] == 1 and state.flow[7] == 0


def test_cancel_random_injected_cycles():
    rng = random.Random(5)
    for seed in range(8):
        inst = generate_instance("grid", 36, seed, 9, 1)
        state = FlowState.from_instance(inst)
        _random_pushes(state, rng, 40, starts=inst.sources)
        # inject cycles along random faces
        g = inst.graph
        for f in rng.sample(range(len(g.faces)), 4):
            cyc = g.faces[f]
            amt = min(state.residual(d) for d in cyc)
            if amt:
                for d in cyc:
                    state.push(d, rng.randint(1, amt) if amt else 0)
        excess_before = list(state.excess)
        order = cancel_flow_cycles(state)
        assert state.excess == excess_before
        assert _naive_excess(state) == excess_before
        assert sorted(order) == list(range(g.vertex_count))
        # support graph is now acyclic: drain must not raise
        drain_excess(state, inst.sources, inst.sinks, order)


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_cycle_cancelling_is_one_pass():
    """200 disjoint flow cycles in the lower half of a 40x40 grid: the
    canceller reads rotations a bounded number of times per dart and per
    cycle dart, not once per vertex for every cycle, as a search restarted
    at vertex 0 after each cancel would."""
    cols = 40
    g = grid_graph(cols, cols)
    state = FlowState(g, [9] * g.dart_count)
    corners = {r * cols + c for r in range(20, cols - 1, 2)
               for c in range(0, cols - 1, 2)}
    cycle_darts = 0
    for face in g.faces:
        if len(face) == 4 and min(g.tail(d) for d in face) in corners:
            for d in face:
                state.push(d, 3)
            cycle_darts += len(face)
    assert cycle_darts == 4 * len(corners) == 800
    g.rotations = _CountingList(g.rotations)
    order = cancel_flow_cycles(state)
    assert g.rotations.reads <= 2 * (g.dart_count + cycle_darts)
    assert state.cancelled_cycles == len(corners)
    assert not any(state.flow)
    assert sorted(order) == list(range(g.vertex_count))


def test_drain_noop_on_flow():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    state.push(0, 4)
    before = list(state.flow)
    drain_excess(state, [0], [1], cancel_flow_cycles(state))
    assert state.flow == before


def test_drain_hand_case():
    # s=0 -> v=1 carries 5, v -> t=2 carries 2: inflow at v reduced to 2
    g = grid_graph(1, 3)
    state = FlowState(g, [9, 9, 9, 9])
    state.push(0, 5)
    state.push(2, 2)
    drain_excess(state, [0], [2], cancel_flow_cycles(state))
    assert state.flow[0] == 2 and state.flow[2] == 2
    assert state.excess[1] == 0


def test_drain_requires_acyclic_support():
    g = grid_graph(2, 2)
    state = FlowState(g, [9] * g.dart_count)
    for d in (0, 4, 7, 3):
        state.push(d, 2)
    with pytest.raises(CyclicSupport):
        drain_excess(state, [0], [3], range(4))


def test_flow_value_identities(small_corpus):
    for inst in small_corpus[:8]:
        state = FlowState.from_instance(inst)
        assert flow_value(state, inst.sinks) == 0
        max_st_flow(state, inst.sources[0], inst.sinks[0])
        value = flow_value(state, inst.sinks)
        # conservation: net inflow at T equals net outflow of S
        ex = _naive_excess(state)
        assert value == -sum(ex[s] for s in inst.sources)


def test_saturated_single_edge_value():
    inst = parse_instance(SINGLE_EDGE.replace("5", "7"))
    state = FlowState.from_instance(inst)
    state.push(0, 7)
    assert flow_value(state, [1]) == 7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000))
def test_conversion_preserves_value_and_excess_budget(seed):
    """Cycle cancellation plus draining yields a valid flow with the same
    net inflow at the sink, for preflows built away from the sink."""
    rng = random.Random(seed)
    inst = generate_instance("triangulation", 5 + seed % 30, seed, 7, 1)
    state = FlowState.from_instance(inst)
    t = inst.sinks[0]
    max_st_flow(state, inst.sources[0], t)  # a real flow into the sink first
    _random_pushes(state, rng, 30, starts=inst.sources, avoid={t})
    value = flow_value(state, inst.sinks)
    drain_excess(state, inst.sources, inst.sinks, cancel_flow_cycles(state))
    assert flow_value(state, inst.sinks) == value
    ex = _naive_excess(state)
    terminals = set(inst.sources) | set(inst.sinks)
    assert all(ex[v] == 0 for v in range(inst.graph.vertex_count)
               if v not in terminals)


def _random_trail(state, rng, closed):
    """A random walk along residual darts that uses each edge at most once;
    with `closed`, one that ends where it starts, or None if none was met."""
    g = state.graph
    start = v = rng.randrange(g.vertex_count)
    walk, used = [], set()
    for _ in range(rng.randint(1, 30)):
        darts = [d for d in g.rotations[v]
                 if state.residual(d) > 0 and d >> 1 not in used]
        if not darts:
            break
        d = rng.choice(darts)
        walk.append(d)
        used.add(d >> 1)
        v = g.head(d)
        if closed and v == start:
            return walk
    return None if closed else walk


def test_push_path_matches_pushing_each_dart():
    """Along random walks and closed walks, some cancelling reverse flow,
    one call leaves the flow and excess of one push per dart in turn."""
    rng = random.Random(7)
    checked = {False: 0, True: 0}
    for seed in range(12):
        kind = "grid" if seed % 2 else "triangulation"
        inst = generate_instance(kind, 40, seed, 9, 2)
        state = FlowState.from_instance(inst)
        _random_pushes(state, rng, 30, starts=list(range(inst.graph.vertex_count)))
        for _ in range(40):
            closed = rng.random() < 0.5
            walk = _random_trail(state, rng, closed)
            if not walk:
                continue
            amount = rng.randint(1, min(state.residual(d) for d in walk))
            one_by_one = FlowState(inst.graph, inst.capacities, state.flow)
            for d in walk:
                one_by_one.push(d, amount)
            state.push_path(walk, amount)
            assert state.flow == one_by_one.flow
            assert state.excess == one_by_one.excess == _naive_excess(state)
            checked[closed] += 1
    assert min(checked.values()) > 20


def test_push_path_rejects_and_changes_nothing():
    """An amount above a dart's residual, a negative amount, darts that do
    not form a walk, an edge used twice and an empty walk all raise
    ValueError and leave flow and excess as they were."""
    g = grid_graph(1, 4)  # the path 0 - 1 - 2 - 3, darts 0, 2, 4 eastward
    state = FlowState(g, [5, 5, 2, 2, 5, 5])
    state.push(4, 1)
    walk = [0, 2, 4]
    assert [state.residual(d) for d in walk] == [5, 2, 4]
    flow, excess = list(state.flow), list(state.excess)
    for darts, amount in ((walk, 3), (walk, -1), ([0, 4], 1), ([2, 0], 1),
                          ([0, 1], 1), ([], 1)):
        with pytest.raises(ValueError):
            state.push_path(darts, amount)
        assert state.flow == flow and state.excess == excess
    state.push_path(walk, 2)
    assert state.flow == [2, 0, 2, 0, 3, 0]
    assert state.excess == [-2, 0, -1, 3]  # vertex 2 still sends the 1 unit


def test_push_path_of_zero_changes_nothing():
    g = grid_graph(1, 3)
    state = FlowState(g, [4, 0, 0, 4])  # dart 2 is one-way against the walk
    state.push(0, 3)
    flow, excess = list(state.flow), list(state.excess)
    state.push_path([0, 2], 0)
    state.push_path([3, 1], 0)
    assert state.flow == flow and state.excess == excess


def test_state_from_a_flow_not_in_net_normal_form():
    """An edge carrying flow both ways starts the state its net flow would:
    the same excess, value and residuals, and the flow reads back in net
    normal form."""
    g = grid_graph(1, 3)  # the path 0 - 1 - 2, darts 0, 2 eastward
    caps = [5, 5, 5, 5]
    both_ways = FlowState(g, caps, [4, 1, 2, 0])
    net = FlowState(g, caps, [3, 0, 2, 0])
    assert both_ways.excess == net.excess == [-3, 1, 2]
    assert flow_value(both_ways, [2]) == flow_value(net, [2]) == 2
    assert ([both_ways.residual(d) for d in range(4)]
            == [net.residual(d) for d in range(4)] == [2, 8, 3, 7])
    assert both_ways.flow == net.flow == [3, 0, 2, 0]
