import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planarflow.embedding as embedding
from planarflow import (InvalidParams, build_graph, generate_instance,
                        grid_graph, insert_vertices_in_faces,
                        stacked_triangulation, write_instance)

# sha256 of write_instance(generate_instance("triangulation", n, seed, 100, 2)),
# recorded when every inserted vertex still rebuilt the whole graph
TRIANGULATION_GOLDENS = {
    (3, 0): "dad72870d3097b4cb2ff6fc887d95891b72e18be1cbb37b7a4f6e39e3a4691a0",
    (3, 1): "131888e10eacb8bb86ebc3990b400f01eb762e5e985416c1f038c2be7d9d5d09",
    (3, 2): "b60c2b350c85270a79c4e2b5632855e6b0e810afde0d2b21d4030b17945348ef",
    (4, 0): "94d713db67acec4ea7b2f7f88d88ca43c5a3dbdd3f5ebb0f616596d0e97ac60a",
    (4, 1): "f6c9609bb9e490f8046ba0a831d7800188116604cd31bf7f0544033134052f9b",
    (4, 2): "507f5b4be209fbb313ee4aba282a680dfc43bb7ab4cbb523a36acd5a9c7279ca",
    (8, 0): "371722bef52f0d1076d8d098cda523c72cd433609f7f49b01060f6a31d5de3a9",
    (8, 1): "9342f976c835d06120bdefdfcdec80b030ab81ac6debd16f0aef22e74c26411a",
    (8, 2): "28f02f0c038317d1cc462058a10bc3ff7ba1e4cb6f8c0e950d70e29ac91b27a4",
    (50, 0): "425a61be29750231564351d75e4f1ed313c290c4d1473ae95c71a528457d7c22",
    (50, 1): "393bada9baeda37714cc0c46c316000988c848902a46e0c1b0aceccb8ffec137",
    (50, 2): "4a53bd34ab6c27bed776b95d0b08af85ff8987537dfc13616e7c93c08af2c1d2",
    (1000, 0): "5a348de58aa97613a191416bdf98fc83decc00b4cd67713da34a9cb15682626a",
    (1000, 1): "8240b122c7d449bb0a51410aa83e99c61a200d2613ca4b4d352ff000c1eb1fe3",
    (1000, 2): "60220122094a2fc9edcac99adde6c98865ae52b5dc6b01a095d6bc59ea611fcb",
    (2000, 0): "e9aa5e31ee66ede9322da494fca1a0107dc39fbdfbc8e6083ec5ac8bb0b0d8a5",
    (2000, 1): "07d414bf272080b5bb7379176695f47fce948fa3c1dc01250b8ef7a8fe5cda5a",
    (2000, 2): "7bd672b601c468d3d0cd1e8590b0121d9563586acc07eed8c69ba356bfc0556f",
}


def test_grid_9_is_3x3_and_reproducible():
    a = generate_instance("grid", 9, 1, 10, 2)
    b = generate_instance("grid", 9, 1, 10, 2)
    assert a.graph.vertex_count == 9
    assert a.graph.edge_count == 12
    assert write_instance(a) == write_instance(b)


def test_triangulation_is_euler_valid():
    inst = generate_instance("triangulation", 100, 7, 100, 5)
    g = inst.graph
    assert g.vertex_count == 100
    assert g.vertex_count - g.edge_count + len(g.faces) == 2
    assert all(len(f) == 3 for f in g.faces)
    assert len(inst.sources) == 5 and len(inst.sinks) == 1


def test_degenerate_size_rejected():
    with pytest.raises(InvalidParams):
        generate_instance("grid", 1, 1, 10, 1)
    with pytest.raises(InvalidParams, match="at least two vertices"):
        grid_graph(1, 1)
    # a 2x2 grid has room for 3 sources and a sink, not 4 and a sink
    with pytest.raises(InvalidParams, match="not enough vertices"):
        generate_instance("grid", 4, 0, 10, 4)


@pytest.mark.parametrize("kind,n,cap,k", [
    ("grid", 0, 5, 1), ("grid", 9, 0, 1), ("grid", 9, 5, 0),
    ("nonesuch", 9, 5, 1), ("triangulation", 2, 5, 1),
])
def test_invalid_params(kind, n, cap, k):
    with pytest.raises(InvalidParams):
        generate_instance(kind, n, 1, cap, k)


def test_different_seeds_differ():
    a = generate_instance("triangulation", 40, 1, 10, 2)
    b = generate_instance("triangulation", 40, 2, 10, 2)
    assert write_instance(a) != write_instance(b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_generated_instances_are_valid(seed, use_grid):
    kind = "grid" if use_grid else "triangulation"
    inst = generate_instance(kind, 5 + seed % 60, seed, 12, 1 + seed % 4)
    caps = inst.capacities
    assert all(1 <= c <= 12 for c in caps)
    assert inst.graph.connected
    assert set(inst.sources).isdisjoint(inst.sinks)
    assert write_instance(inst) == write_instance(
        generate_instance(kind, 5 + seed % 60, seed, 12, 1 + seed % 4))


@pytest.mark.parametrize("n, seed", sorted(TRIANGULATION_GOLDENS))
def test_triangulation_matches_golden(n, seed):
    text = write_instance(generate_instance("triangulation", n, seed, 100, 2))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == TRIANGULATION_GOLDENS[n, seed]


def _triangulation_by_insertion(n, rng):
    """Reference: one whole-graph insertion per new vertex."""
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)], [[0, 5], [2, 1], [4, 3]])
    while g.vertex_count < n:
        walk = g.faces[rng.randrange(len(g.faces))]
        g = insert_vertices_in_faces(g, [list(walk)])
    return g


@pytest.mark.parametrize("n", [3, 4, 5, 8, 50, 300])
def test_triangulation_equals_vertex_by_vertex_insertion(n):
    for seed in range(4):
        g = stacked_triangulation(n, random.Random(seed))
        ref = _triangulation_by_insertion(n, random.Random(seed))
        assert g.edges == ref.edges
        assert g.rotations == ref.rotations
        assert g.faces == ref.faces


def test_triangulation_builds_the_graph_once(monkeypatch):
    builds = 0
    init = embedding.EmbeddedGraph.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(embedding.EmbeddedGraph, "__init__", counting_init)
    g = stacked_triangulation(2000, random.Random(0))
    assert g.vertex_count == 2000
    assert builds <= 2


def test_large_triangulation_is_euler_valid():
    g = stacked_triangulation(10_000, random.Random(1))
    assert g.vertex_count == 10_000
    assert g.edge_count == 3 * 10_000 - 6
    assert g.vertex_count - g.edge_count + len(g.faces) == 2
    assert all(len(f) == 3 for f in g.faces)
    assert g.connected
