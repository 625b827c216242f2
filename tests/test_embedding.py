import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarflow import (DanglingDart, NonEmbedding, build_graph, grid_graph,
                        induced_subgraph, insert_vertices_in_faces,
                        stacked_triangulation)
from planarflow.embedding import components
from conftest import with_parallel_edges

TRIANGLE = dict(vertex_count=3, edges=[(0, 1), (1, 2), (2, 0)],
                rotations=[[0, 5], [2, 1], [4, 3]])


def test_triangle_has_two_triangular_faces():
    g = build_graph(**TRIANGLE)
    assert len(g.faces) == 2
    assert sorted(len(f) for f in g.faces) == [3, 3]
    assert g.vertex_count - g.edge_count + len(g.faces) == 2


def test_single_edge_has_one_face_of_two_darts():
    g = build_graph(2, [(0, 1)], [[0], [1]])
    assert len(g.faces) == 1
    assert len(g.faces[0]) == 2


def test_grid_3x3_face_count_by_traversal():
    # traversal oracle: 4 inner quads + 1 outer face; Euler: 2 - 9 + 12 = 5
    g = grid_graph(3, 3)
    assert len(g.faces) == 5
    assert sorted(len(f) for f in g.faces) == [4, 4, 4, 4, 8]


def test_random_triangulation_face_count_matches_euler():
    g = stacked_triangulation(50, random.Random(7))
    assert len(g.faces) == 2 - g.vertex_count + g.edge_count
    assert all(len(f) == 3 for f in g.faces)


def test_face_traversal_partitions_darts():
    g = stacked_triangulation(40, random.Random(3))
    seen = [0] * g.dart_count
    for f in g.faces:
        for d in f:
            seen[d] += 1
    assert all(c == 1 for c in seen)
    # walking next_face_dart from any dart returns to it in |face| steps
    for f in g.faces:
        d = f[0]
        for _ in range(len(f)):
            d = g.next_face_dart(d)
        assert d == f[0]


def test_dangling_dart_rejected():
    bad = dict(TRIANGLE, rotations=[[0, 99], [2, 1], [4, 3]])
    with pytest.raises(DanglingDart):
        build_graph(**bad)


def test_duplicate_dart_rejected():
    bad = dict(TRIANGLE, rotations=[[0, 5, 0], [2, 1], [4, 3]])
    with pytest.raises(NonEmbedding):
        build_graph(**bad)
    # dart 4 leaves vertex 2 but sits in the rotation of vertex 1
    bad = dict(TRIANGLE, rotations=[[0, 5], [2, 4], [1, 3]])
    with pytest.raises(NonEmbedding, match="dart 4 has tail 2"):
        build_graph(**bad)


def test_missing_dart_rejected():
    bad = dict(TRIANGLE, rotations=[[0], [2, 1], [4, 3]])
    with pytest.raises(NonEmbedding):
        build_graph(**bad)
    bad = dict(TRIANGLE, rotations=[[0, 5], [2, 1]])
    with pytest.raises(NonEmbedding, match="expected 3 rotation lists, got 2"):
        build_graph(**bad)


def test_self_loop_rejected():
    with pytest.raises(NonEmbedding):
        build_graph(2, [(0, 0), (0, 1)], [[0, 1, 2], [3]])
    with pytest.raises(NonEmbedding, match="edge 0 endpoint out of range"):
        build_graph(2, [(0, 2)], [[0], [1]])


def test_toroidal_rotation_fails_euler():
    # K4 with one vertex rotation reversed embeds on the torus, not the plane
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    planar = [[4, 0, 2], [6, 1, 8], [10, 3, 7], [9, 5, 11]]
    g = build_graph(4, edges, planar)
    assert len(g.faces) == 4
    twisted = [list(r) for r in planar]
    twisted[0].reverse()
    with pytest.raises(NonEmbedding):
        build_graph(4, edges, twisted)


def test_insert_vertices_in_faces_full_star():
    g = grid_graph(3, 3)
    quad = next(f for f in g.faces if len(f) == 4)
    h = insert_vertices_in_faces(g, [list(quad)])
    assert h.vertex_count == g.vertex_count + 1
    assert h.edge_count == g.edge_count + 4
    assert len(h.faces) == len(g.faces) + 3
    # old dart ids keep their endpoints
    for d in range(g.dart_count):
        assert h.tail(d) == g.tail(d) and h.head(d) == g.head(d)


def test_insert_vertex_single_anchor_keeps_face_count():
    g = grid_graph(3, 3)
    quad = next(f for f in g.faces if len(f) == 4)
    h = insert_vertices_in_faces(g, [[quad[0]]])
    assert h.vertex_count == g.vertex_count + 1
    assert len(h.faces) == len(g.faces)
    assert len(h.rotations[g.vertex_count]) == 1


def test_insert_vertices_rejects_a_corner_named_twice():
    g = grid_graph(3, 3)
    quad = next(f for f in g.faces if len(f) == 4)
    with pytest.raises(ValueError, match="appears in two corner lists"):
        insert_vertices_in_faces(g, [[quad[0]], [quad[0], quad[2]]])
    with pytest.raises(ValueError, match="duplicate corner vertex"):
        insert_vertices_in_faces(g, [[quad[0], quad[0]]])
    with pytest.raises(ValueError, match="need at least one corner dart"):
        insert_vertices_in_faces(g, [[]])
    # a grid has no bridge: a dart and its reverse lie on two faces
    with pytest.raises(ValueError, match="belong to a single face"):
        insert_vertices_in_faces(g, [[quad[0], quad[0] ^ 1]])


def test_isolated_vertex_is_a_component_of_its_own():
    # an edge 0-1 and the isolated vertex 2: V - E + F + isolated = 2c
    g = build_graph(3, [(0, 1)], [[0], [1], []])
    assert g.component_count == 2
    assert not g.connected
    assert components(g, range(3)) == [[0, 1], [2]]
    assert components(g, [0, 2]) == [[0], [2]]


def test_induced_subgraph_inherits_embedding():
    g = grid_graph(4, 4)
    sub, vertex_ids, edge_ids = induced_subgraph(g, range(8))  # a 2x4 grid
    assert sub.vertex_count == 8
    assert sub.edge_count == 10
    assert sub.connected
    for d in range(sub.dart_count):
        pd = 2 * edge_ids[d >> 1] | (d & 1)
        assert g.tail(pd) == vertex_ids[sub.tail(d)]


def test_induced_subgraph_may_disconnect():
    g = grid_graph(1, 5)  # path 0-1-2-3-4
    sub, _, _ = induced_subgraph(g, [0, 1, 3, 4])
    assert sub.component_count == 2


def _all_edges_induced_subgraph(g, vertices):
    """The reference: a scan over every edge of `g`, keeping those with
    both ends in the set; rotations are restricted to the kept darts.
    Returns (edges, rotations, vertex ids, edge ids)."""
    vertex_ids = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vertex_ids)}
    edges, edge_ids, dart_map = [], [], {}
    for e, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            dart_map[2 * e] = 2 * len(edges)
            dart_map[2 * e + 1] = 2 * len(edges) + 1
            edges.append((index[u], index[v]))
            edge_ids.append(e)
    rotations = [[dart_map[d] for d in g.rotations[v] if d in dart_map]
                 for v in vertex_ids]
    return edges, rotations, vertex_ids, edge_ids


def _connected_subset(g, rng):
    """A random connected vertex set, grown from a random vertex."""
    size = rng.randint(1, g.vertex_count)
    start = rng.randrange(g.vertex_count)
    kept, frontier = {start}, [start]
    while frontier and len(kept) < size:
        v = frontier.pop(rng.randrange(len(frontier)))
        for d in g.rotations[v]:
            w = g.head(d)
            if w not in kept and len(kept) < size:
                kept.add(w)
                frontier.append(w)
    return kept


@pytest.mark.parametrize("build", [
    lambda: grid_graph(7, 9),
    lambda: stacked_triangulation(60, random.Random(3)),
    lambda: with_parallel_edges(grid_graph(6, 6), 5, 25),
], ids=["grid-7x9", "triangulation-60", "grid-parallel"])
def test_induced_subgraph_matches_an_all_edges_scan(build):
    """Reading only the kept vertices' rotations finds the same edges in
    the same order, the same rotations and the same id lists as a scan
    over every edge of the graph, on connected and arbitrary subsets."""
    g = build()
    rng = random.Random(g.edge_count)
    for trial in range(40):
        if trial % 2:
            vertices = _connected_subset(g, rng)
        else:
            vertices = rng.sample(range(g.vertex_count),
                                  rng.randint(0, g.vertex_count))
        sub, vertex_ids, edge_ids = induced_subgraph(g, vertices)
        edges, rotations, want_vertices, want_edges = \
            _all_edges_induced_subgraph(g, vertices)
        assert sub.edges == edges
        assert sub.rotations == rotations
        assert vertex_ids == want_vertices
        assert edge_ids == want_edges
        if trial % 2:
            assert sub.connected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_triangulation_embedding_valid_for_any_seed(seed):
    rng = random.Random(seed)
    g = stacked_triangulation(rng.randint(3, 40), rng)
    assert g.vertex_count - g.edge_count + len(g.faces) == 2
    assert g.connected
