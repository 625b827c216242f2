import random

import pytest

from planarflow import (FlowState, SearchFailed, build_fig1_counterexample,
                        flow_value, load_fig1_fixture, max_st_flow,
                        oracle_value, parse_instance, sequential_saturation,
                        validate_flow, write_instance)
from conftest import corpus, relabel

SINGLE_EDGE = "plem 2 1\nrot 0 0\nrot 1 1\nedge 0 0 1 9 0\nsrc 0\nsnk 1\n"

# the frozen fixture was produced by this seed of the bounded search
FIG1_SEARCH_SEED = 4293


def test_single_edge_oracle():
    assert oracle_value(parse_instance(SINGLE_EDGE)) == 9


def test_fixture_oracle_is_three():
    inst, _ = load_fig1_fixture()
    assert oracle_value(inst) == 3


def test_oracle_invariant_under_relabeling(small_corpus):
    rng = random.Random(17)
    for inst in small_corpus[:10]:
        assert oracle_value(relabel(inst, rng)) == oracle_value(inst)


def test_validate_zero_flow_is_valid(small_corpus):
    inst = small_corpus[0]
    assert validate_flow(inst, FlowState.from_instance(inst)) == []


def test_validate_reports_single_capacity_violation():
    inst = parse_instance(SINGLE_EDGE)
    flow = FlowState.from_instance(inst).flow
    flow[0] = inst.capacities[0] + 1  # excess lands on terminals only
    report = validate_flow(inst, flow)
    assert len(report) == 1
    assert "exceeds capacity" in report[0]


def test_validate_reports_conservation_breach():
    text = "plem 3 2\nrot 0 0\nrot 1 1 2\nrot 2 3\n" \
           "edge 0 0 1 5 0\nedge 1 1 2 5 0\nsrc 0\nsnk 2\n"
    inst = parse_instance(text)
    flow = FlowState.from_instance(inst).flow
    flow[0] = 3  # enters vertex 1, never leaves
    report = validate_flow(inst, flow)
    assert any("conservation" in line and "vertex 1" in line for line in report)


def test_validate_reports_negative_flow():
    inst = parse_instance(SINGLE_EDGE)
    report = validate_flow(inst, [-1, 0])
    assert any("negative" in line for line in report)
    assert validate_flow(inst, [1]) == [
        "flow vector has length 1, expected 2"]


def test_solver_outputs_always_validate():
    for inst in corpus(10, seed0=9000, max_n=60):
        state = sequential_saturation(inst)
        assert validate_flow(inst, state) == []


def test_search_finds_the_frozen_counterexample():
    inst, order = build_fig1_counterexample(max_seeds=FIG1_SEARCH_SEED + 1)
    fixture, fixture_order = load_fig1_fixture()
    assert oracle_value(inst) == 3
    assert write_instance(inst) == write_instance(fixture)  # rotations too
    assert order == fixture_order


def test_search_failure_is_reported():
    with pytest.raises(SearchFailed):
        build_fig1_counterexample(max_seeds=3)


def test_oracle_agrees_with_st_engine(small_corpus):
    from planarflow import Instance

    for inst in small_corpus[:10]:
        s, t = inst.sources[0], inst.sinks[0]
        single = Instance(inst.graph, inst.capacities, [s], [t])
        state = FlowState.from_instance(single)
        value = max_st_flow(state, s, t)
        assert value == oracle_value(single)
        assert flow_value(state, [t]) == value
