import pytest

from planarflow import (Instance, NotConnected, ParseError, generate_instance,
                        grid_graph, parse_flow, parse_instance, write_flow,
                        write_instance)

SINGLE_EDGE = """plem 2 1
rot 0 0
rot 1 1
edge 0 0 1 9 0
src 0
snk 1
"""


def test_parse_single_edge():
    inst = parse_instance(SINGLE_EDGE)
    assert inst.graph.vertex_count == 2
    assert inst.capacities == [9, 0]
    assert inst.sources == [0] and inst.sinks == [1]


def test_roundtrip_is_byte_identical():
    for seed in range(6):
        inst = generate_instance("grid" if seed % 2 else "triangulation",
                                 30, seed, 17, 3)
        text = write_instance(inst)
        assert write_instance(parse_instance(text)) == text


def test_comments_and_whitespace_tolerated():
    text = "# header comment\nplem 2 1  # inline\n rot 0 0\nrot 1 1\n" \
           "edge 0 0 1 9 0\nsrc 0\nsnk 1\n"
    assert parse_instance(text).capacities == [9, 0]


@pytest.mark.parametrize("mutation", [
    lambda t: t.replace("plem", "pelm"),
    lambda t: t.replace("edge 0 0 1 9 0", "edge 0 0 1 9"),
    lambda t: t.replace("snk 1", ""),
    lambda t: t.replace("edge 0", "edge 7"),
    lambda t: t + "trailing junk\n",
    lambda t: t.replace("src 0", "src"),
    lambda t: t.replace("edge 0 0 1 9 0", "edge 0 0 1 -2 0"),
])
def test_malformed_inputs_rejected(mutation):
    with pytest.raises(ParseError):
        parse_instance(mutation(SINGLE_EDGE))


def test_disconnected_input_rejected():
    text = """plem 4 2
rot 0 0
rot 1 1
rot 2 2
rot 3 3
edge 0 0 1 1 1
edge 1 2 3 1 1
src 0
snk 1
"""
    with pytest.raises(NotConnected):
        parse_instance(text)


def test_terminal_overlap_rejected():
    with pytest.raises(ParseError):
        parse_instance(SINGLE_EDGE.replace("snk 1", "snk 0"))


def test_flow_dump_roundtrip():
    text = write_flow([0, 3, 0, 7], 10)
    dump = parse_flow(text)
    assert dump.dart_flow == {1: 3, 3: 7}
    assert dump.value == 10


def test_flow_dump_requires_value_line():
    with pytest.raises(ParseError):
        parse_flow("flow 1 3\n")


def test_flow_dump_rejects_repeated_dart():
    with pytest.raises(ParseError, match="dart 1"):
        parse_flow("flow 1 3\nflow 1 4\nvalue 7\n")


def test_flow_dump_rejects_repeated_value():
    with pytest.raises(ParseError, match="repeated value"):
        parse_flow("flow 1 3\nvalue 3\nvalue 99\n")


def test_header_counts_checked_against_input_length():
    # 5000000 rot lines need 10^7 tokens; the input has none
    with pytest.raises(ParseError, match="plem 5000000 0"):
        parse_instance("plem 5000000 0\n")
    with pytest.raises(ParseError, match="plem 0 3"):
        parse_instance("plem 0 3\nedge 0 0 1 1 1\nsrc 0\nsnk 1\n")


def test_instance_validation():
    g = grid_graph(2, 2)
    with pytest.raises(ValueError):
        Instance(g, [1] * (g.dart_count - 1), [0], [3])
    with pytest.raises(ValueError):
        Instance(g, [1] * g.dart_count, [0], [0])
    with pytest.raises(ValueError):
        Instance(g, [1] * g.dart_count, [0], [99])
