import pytest

from planarflow import (DEFAULT_ENGINE, ENGINES, FlowState,
                        check_cut_saturated, cut_from_side, flow_value,
                        is_max_preflow, max_st_flow, oracle_value,
                        parse_instance, residual_reachable)
from planarflow.maxflow import SinkLabels, blocking_flow
from conftest import reaching

SINGLE_EDGE = "plem 2 1\nrot 0 0\nrot 1 1\nedge 0 0 1 4 0\nsrc 0\nsnk 1\n"


def test_single_edge_value_and_cut():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    value = max_st_flow(state, 0, 1)
    cut = cut_from_side(inst.graph, residual_reachable(state, 0))
    assert value == 4
    assert cut.a == {0} and cut.b == {1}
    assert check_cut_saturated(state, cut)


def test_idempotent_on_max_state():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    max_st_flow(state, 0, 1)
    value = max_st_flow(state, 0, 1)
    assert value == 0


def test_source_equals_sink_rejected():
    state = FlowState.from_instance(parse_instance(SINGLE_EDGE))
    with pytest.raises(ValueError):
        max_st_flow(state, 0, 0)


def test_negative_limit_rejected():
    state = FlowState.from_instance(parse_instance(SINGLE_EDGE))
    with pytest.raises(ValueError):
        max_st_flow(state, 0, 1, limit=-1)


def test_bad_arguments_rejected_with_a_dead_set():
    """Bad arguments fail also when labels, whose infinite entries are the
    dead set, are given; so do labels of another sink set, and a source
    that is one of the sinks. One sink and a collection holding only it
    are the same sink set."""
    state = FlowState.from_instance(parse_instance(SINGLE_EDGE))
    with pytest.raises(ValueError):
        max_st_flow(state, 0, 0, labels=SinkLabels(0))
    with pytest.raises(ValueError):
        max_st_flow(state, 0, [1, 0])
    with pytest.raises(ValueError):
        max_st_flow(state, 0, 1, limit=-1, labels=SinkLabels(1))
    with pytest.raises(ValueError):
        max_st_flow(state, 0, 1, labels=SinkLabels(0))
    with pytest.raises(ValueError):
        max_st_flow(state, 0, 1, labels=SinkLabels([1, 0]))
    assert state.flow == [0, 0]
    assert max_st_flow(state, 0, [1], limit=1, labels=SinkLabels(1)) == 1
    assert max_st_flow(state, 0, 1, labels=SinkLabels([1])) == 3


@pytest.mark.parametrize("limit", [None, 5])
def test_dead_set_holds_only_vertices_cut_off_from_sink(limit, small_corpus):
    """Labels shared by all pushes into one sink: every vertex whose label
    is infinite (dead) cannot reach the sink after each push, and every
    push that ends short of its limit leaves its source dead."""
    learned = 0
    for inst in small_corpus:
        state = FlowState.from_instance(inst)
        t = inst.sinks[0]
        n = inst.graph.vertex_count
        labels = SinkLabels(t)
        for s in inst.sources:
            while True:  # a limited push may stop short; repeat until empty
                added = max_st_flow(state, s, t, limit=limit, labels=labels)
                dead = {v for v in range(n) if labels.dist[v] == n}
                assert not dead & reaching(state, t)
                if added != limit:
                    assert s in dead
                if not added or limit is None:
                    break
        learned += len(dead)
    assert learned


def test_dead_source_skips_the_engine(small_corpus):
    """A push from a vertex whose label is infinite adds nothing and never
    reaches the engine; fresh labels, which know no dead vertex, reach
    it, and its search finds the vertex cut off."""
    calls = 0

    def counting(state, s, t, limit=None, labels=None):
        nonlocal calls
        calls += 1
        return blocking_flow(state, s, t, limit, labels)

    for inst in small_corpus[:12]:
        s, t = inst.sources[0], inst.sinks[0]
        n = inst.graph.vertex_count
        state = FlowState.from_instance(inst)
        labels = SinkLabels(t)
        max_st_flow(state, s, t, counting, labels=labels)
        assert labels.dist[s] == n  # a maximum flow leaves s cut off from t
        before, flow = calls, list(state.flow)
        dead = [v for v in range(n) if labels.dist[v] == n]
        for v in dead:
            assert max_st_flow(state, v, t, counting, labels=labels) == 0
            assert max_st_flow(state, v, t, counting, limit=3, labels=labels) == 0
        assert calls == before
        assert state.flow == flow
        fresh = SinkLabels(t)
        assert max_st_flow(state, s, t, counting, labels=fresh) == 0
        assert calls == before + 1 and fresh.dist[s] == n


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engines_match_oracle(engine, small_corpus):
    from planarflow import Instance

    for inst in small_corpus[:12]:
        s, t = inst.sources[0], inst.sinks[0]
        state = FlowState.from_instance(inst)
        value = max_st_flow(state, s, t, ENGINES[engine])
        cut = cut_from_side(inst.graph, residual_reachable(state, s))
        want = oracle_value(Instance(inst.graph, inst.capacities, [s], [t]))
        assert value == want
        ok, _ = is_max_preflow(state, [s], [t])
        assert ok
        assert check_cut_saturated(state, cut)
        assert s in cut.a and t in cut.b


def test_engine_values_agree(small_corpus):
    """Every listed engine and the default give one value; the default
    is the listed default engine."""
    assert ENGINES[DEFAULT_ENGINE] is blocking_flow
    for inst in small_corpus[:12]:
        s, t = inst.sources[0], inst.sinks[0]
        values = set()
        for engine in [*ENGINES.values(), None]:
            state = FlowState.from_instance(inst)
            values.add(max_st_flow(state, s, t, engine))
        assert len(values) == 1


def test_bounded_push_zero_budget():
    inst = parse_instance(SINGLE_EDGE)
    state = FlowState.from_instance(inst)
    before = list(state.flow)
    assert max_st_flow(state, 0, 1, limit=0) == 0
    assert state.flow == before


def test_bounded_push_budget_is_bottleneck():
    # path 0 -> 1 -> 2 of capacity 5, excess 2 parked at vertex 1 by a real
    # push; a limit of 1 moves exactly one unit onward
    text = "plem 3 2\nrot 0 0\nrot 1 1 2\nrot 2 3\n" \
           "edge 0 0 1 5 0\nedge 1 1 2 5 0\nsrc 0\nsnk 2\n"
    inst = parse_instance(text)
    state = FlowState.from_instance(inst)
    state.push(0, 2)
    assert state.excess[1] == 2
    assert max_st_flow(state, 1, 2, limit=1) == 1
    assert flow_value(state, [2]) == 1
    assert state.excess[1] == 1


def test_bounded_push_large_budget_matches_unbounded(small_corpus):
    for inst in small_corpus[:10]:
        p, t = inst.sources[0], inst.sinks[0]
        reference = FlowState.from_instance(inst)
        want = max_st_flow(reference, p, t)
        state = FlowState.from_instance(inst)
        before = state.excess[p]
        got = max_st_flow(state, p, t, limit=10 ** 9)
        assert got == want
        assert state.excess[p] == before - got
        assert flow_value(state, [t]) == got


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_bounded_push_is_exact(engine, small_corpus):
    """A limited push moves exactly min(limit, unbounded value) units out of p."""
    widest = 0
    for inst in small_corpus[:10]:
        p, t = inst.sources[0], inst.sinks[0]
        want = max_st_flow(FlowState.from_instance(inst), p, t, ENGINES[engine])
        widest = max(widest, want)
        for budget in sorted({0, 1, want - 1, want, want + 1} - {-1}):
            state = FlowState.from_instance(inst)
            before = state.excess[p]
            got = max_st_flow(state, p, t, ENGINES[engine], limit=budget)
            assert got == min(budget, want)
            assert state.excess[p] == before - got
            recomputed = FlowState(inst.graph, inst.capacities, state.flow)
            assert state.excess == recomputed.excess
    assert widest > 2  # the budgets 1, want - 1 and want are distinct somewhere
