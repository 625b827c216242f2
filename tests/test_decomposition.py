import hashlib
import math
import random
from collections import deque

import pytest

import planarflow.decomposition as dec
from planarflow import (DivisionParams, Instance, InvalidParams,
                        NotConnected, SeparatorFailed, attach_super_sinks, build_graph,
                        cycle_separator, divide, generate_instance,
                        grid_graph, induced_subgraph,
                        insert_vertices_in_faces, root_piece,
                        solve_recursive, stacked_triangulation,
                        triangulate)
from conftest import corpus, with_parallel_edges
from test_acceptance import _acceptance_corpus


def unit_instance(graph, sources=(0,), sinks=None):
    sinks = [graph.vertex_count - 1] if sinks is None else list(sinks)
    return Instance(graph, [1] * graph.dart_count, list(sources), sinks)


def side_weights(graph, cycle, weights):
    """Component weights of graph minus the cycle, by flood fill."""
    on = set(cycle)
    seen = set(on)
    out = []
    for s in range(graph.vertex_count):
        if s in seen:
            continue
        seen.add(s)
        queue = deque([s])
        total = weights[s]
        while queue:
            v = queue.popleft()
            for d in graph.rotations[v]:
                w = graph.head(d)
                if w not in seen:
                    seen.add(w)
                    total += weights[w]
                    queue.append(w)
        out.append(total)
    return out


def corner_darts(graph, hole):
    """First dart into each anchor of `hole`, one face walk per anchor."""
    walk = graph.faces[hole.face]
    return [next(d for d in walk if graph.head(d) == v) for v in hole.anchors]


def check_separator(graph, weights, cycle):
    assert len(cycle) == len(set(cycle)), "separator cycle repeats a vertex"
    total = sum(weights)
    for cw in side_weights(graph, cycle, weights):
        assert 3 * cw <= 2 * total, "component heavier than 2/3 of the weight"


# -- triangulation ---------------------------------------------------------


def _built(fan):
    """The fan built through `build_graph`, with every check; its faces
    must partition the darts exactly as the fan's `dart_face` does."""
    tg = build_graph(fan.vertex_count, fan.edges, fan.rotations)
    assert tg.dart_tails == fan.dart_tails
    assert len(tg.faces) == fan.face_count
    fan_ids = [fan.dart_face[f[0]] for f in tg.faces]
    assert sorted(fan_ids) == list(range(fan.face_count))
    assert all(fan.dart_face[d] == fid
               for f, fid in zip(tg.faces, fan_ids) for d in f)
    return tg


@pytest.mark.parametrize("build", [
    lambda: grid_graph(5, 5),
    lambda: grid_graph(2, 9),
    lambda: stacked_triangulation(25, random.Random(0)),
    lambda: generate_instance("grid", 64, 3, 5, 2).graph,
])
def test_triangulate_fills_simple_faces(build):
    g = build()
    tg = _built(triangulate(g))
    assert tg.vertex_count == g.vertex_count
    assert tg.edges[: g.edge_count] == g.edges
    assert all(len(f) == 3 for f in tg.faces)
    assert tg.vertex_count - tg.edge_count + len(tg.faces) == 2


def _keep_edges(g, keep):
    """Spanning subgraph with the edges in `keep`, inheriting the embedding."""
    keep = sorted(keep)
    index = {e: i for i, e in enumerate(keep)}
    rotations = [[2 * index[d >> 1] | (d & 1) for d in rot if d >> 1 in index]
                 for rot in g.rotations]
    return build_graph(g.vertex_count, [g.edges[e] for e in keep], rotations)


def _tree_edges(g):
    parent_dart, _, _ = dec._bfs_tree(g, 0)
    return {d >> 1 for d in parent_dart if d >= 0}


def _spanning_tree(g):
    return _keep_edges(g, _tree_edges(g))


def _edge_deleted(g, seed):
    """`g` with a random half of the edges off a spanning tree deleted."""
    tree = _tree_edges(g)
    rest = [e for e in range(g.edge_count) if e not in tree]
    kept = random.Random(seed).sample(rest, len(rest) // 2)
    return _keep_edges(g, tree | set(kept))


def _star(k):
    edges = [(0, i) for i in range(1, k + 1)]
    rotations = [[2 * e for e in range(k)]] + [[2 * e + 1] for e in range(k)]
    return build_graph(k + 1, edges, rotations)


def _path(k):
    edges = [(i, i + 1) for i in range(k - 1)]
    rotations = [[0]] + [[2 * i - 1, 2 * i] for i in range(1, k - 1)] + [
        [2 * k - 3]]
    return build_graph(k, edges, rotations)


def _divided_pieces():
    inst = unit_instance(grid_graph(16, 16))
    return [p.graph for p in divide(inst, DivisionParams(r=32)).pieces]


@pytest.mark.parametrize("build", [
    lambda: [_spanning_tree(stacked_triangulation(200, random.Random(0)))],
    lambda: [_star(12)],
    lambda: [_path(9)],
    lambda: [_cycle_graph(40)],
    lambda: [with_parallel_edges(grid_graph(8, 8), 1, 30)],
    lambda: [stacked_triangulation(50, random.Random(1))],
    _divided_pieces,
], ids=["tree", "star", "path", "cycle-40", "grid-parallel", "triangulation",
        "divided-pieces"])
def test_triangulate_builds_one_graph_without_loops(build, monkeypatch):
    """`triangulate` builds no graph; the one graph is the fan built here,
    through `build_graph`, to check it."""
    builds = 0
    init = dec.EmbeddedGraph.__init__

    def counting_init(self, *args):
        nonlocal builds
        builds += 1
        init(self, *args)

    monkeypatch.setattr(dec.EmbeddedGraph, "__init__", counting_init)
    for g in build():
        builds = 0
        fan = triangulate(g)
        assert builds == 0
        long_faces = any(len(f) > 3 for f in g.faces)
        assert long_faces or fan.rotations is g.rotations
        tg = _built(fan)
        assert builds == 1
        assert all(len(f) <= 3 for f in tg.faces)
        assert all(u != v for u, v in tg.edges)
        assert tg.edges[: g.edge_count] == g.edges


def test_triangulate_handles_piece_subgraphs():
    g = grid_graph(6, 6)
    sub, _, _ = induced_subgraph(
        g, [v for v in range(36) if v != 14 and v != 21])
    tg = _built(triangulate(sub))
    assert tg.vertex_count == sub.vertex_count
    euler = tg.vertex_count - tg.edge_count + len(tg.faces)
    assert euler == 2 * tg.component_count


# -- separator ---------------------------------------------------------------


def test_triangle_and_4_cycle_have_no_separator():
    """Every fundamental cycle of a fan-triangulated triangle or 4-cycle
    leaves one side empty, and such a cycle is no separator."""
    for k in (3, 4):
        with pytest.raises(SeparatorFailed):
            cycle_separator(_cycle_graph(k))
    with pytest.raises(SeparatorFailed, match="too small"):
        cycle_separator(build_graph(2, [(0, 1)], [[0], [1]]))
    with pytest.raises(NotConnected, match="connected graph"):
        cycle_separator(build_graph(4, [(0, 1), (2, 3)],
                                    [[0], [1], [2], [3]]))


@pytest.mark.parametrize("k", [6, 12, 20])
def test_grid_separator_balance_and_length(k):
    g = grid_graph(k, k)
    weights = [1] * g.vertex_count
    cycle = cycle_separator(g, weights)
    check_separator(g, weights, cycle)
    assert len(cycle) <= 4 * k + 2


def _skewed_strip_weights():
    weights = [0] * 60
    for v in (0, 1, 30, 31, 58, 59):
        weights[v] = 5
    return weights


def test_strip_separator_with_skewed_weights():
    g = grid_graph(2, 30)
    weights = _skewed_strip_weights()
    cycle = cycle_separator(g, weights)
    check_separator(g, weights, cycle)


def _cycle_graph(k):
    edges = [(i, (i + 1) % k) for i in range(k)]
    rotations = [[2 * ((i - 1) % k) + 1, 2 * i] for i in range(k)]
    return build_graph(k, edges, rotations)


@pytest.mark.parametrize("build, weigh", [
    (lambda: grid_graph(12, 12), None),
    (lambda: stacked_triangulation(200, random.Random(0)), None),
    (lambda: induced_subgraph(
        grid_graph(6, 6), [v for v in range(36) if v not in (14, 21)])[0],
     None),
    (lambda: _cycle_graph(40), None),
    (lambda: grid_graph(2, 30), _skewed_strip_weights),
    (lambda: _spanning_tree(stacked_triangulation(200, random.Random(0))),
     None),
    (lambda: _edge_deleted(stacked_triangulation(200, random.Random(2)), 3),
     None),
    (lambda: with_parallel_edges(grid_graph(10, 10), 4, 40), None),
], ids=["grid-12x12", "triangulation-200", "grid-piece", "cycle-40",
        "strip-skewed", "triangulation-200-tree", "triangulation-200-sparse",
        "grid-parallel"])
def test_separator_sides_partition_and_split(build, weigh):
    g = build()
    weights = weigh() if weigh else [1] * g.vertex_count
    cycle, side_a, side_b = dec._separate(g, weights)
    assert side_a and side_b
    assert sorted(cycle + side_a + side_b) == list(range(g.vertex_count))
    a, b = set(side_a), set(side_b)
    for u, v in g.edges:
        assert not (u in a and v in b or u in b and v in a), \
            f"edge ({u}, {v}) joins the two sides"
    check_separator(g, weights, cycle)


# -- pieces, divisions -------------------------------------------------------


def test_root_piece_marks_sinks_as_degenerate_holes():
    inst = unit_instance(grid_graph(4, 4), sources=(0,), sinks=(5, 10))
    piece = root_piece(inst)
    assert piece.boundary == {5, 10}
    assert len(piece.holes) == 2
    assert all(h.degenerate for h in piece.holes)
    assert piece.external is None


def test_root_piece_holes_match_the_face_walk():
    # every face of a level graph is its own, so walking the faces finds
    # only the sinks' degenerate holes
    for inst in corpus(30, seed0=500, max_n=150, extra_sinks=2):
        g = inst.graph
        piece = root_piece(inst)
        holes, external = dec._compute_holes(piece, g)
        assert piece.holes == holes
        assert piece.external is external is None


def test_divide_rejects_small_pieces():
    inst = unit_instance(grid_graph(3, 3))
    with pytest.raises(InvalidParams):
        divide(inst, DivisionParams(r=100))


def test_divide_bounds_on_32x32_grid():
    g = grid_graph(32, 32)
    inst = unit_instance(g, sources=(0,), sinks=(1023,))
    params = DivisionParams(sink_bound=4, r=64)
    division = divide(inst, params)
    n0 = 1024
    max_size = dec.C_P * n0
    max_boundary = dec.BOUNDARY_COEFF * math.sqrt(dec.C_P * n0)
    assert len(division.pieces) >= 2
    for piece in division.pieces:
        assert piece.size <= max_size
        assert len(piece.boundary) <= max_boundary
        assert len(piece.holes) <= params.hole_bound


def test_divide_covers_parent_exactly_once_in_interiors():
    """On a 16x16 grid and the three instances whose divisions are pinned,
    each vertex is interior to at most one piece, every vertex is in some
    piece, and every piece has a vertex off the separators."""
    cases = [(unit_instance(grid_graph(16, 16)), DivisionParams(r=32))]
    cases += [(build(), DivisionParams()) for build in _PINNED_DIVISIONS]
    for inst, params in cases:
        division = divide(inst, params)
        seen_interior: set[int] = set()
        seen_all: set[int] = set()
        separator_vertices = {v for cyc in division.separators for v in cyc}
        for piece in division.pieces:
            parent_ids = set(piece.to_parent_vertex)
            seen_all |= parent_ids
            interior = parent_ids - piece.parent_boundary()
            assert not (interior & seen_interior)
            seen_interior |= interior
            # every boundary vertex came from a separator or the root boundary
            assert piece.parent_boundary() <= separator_vertices | set(inst.sinks)
            assert parent_ids - separator_vertices, \
                f"piece {sorted(parent_ids)} lies on the separators"
        assert seen_all == set(range(inst.graph.vertex_count))


def test_divide_single_face_cycle_piece():
    # a bare cycle still divides within hole bounds
    inst = unit_instance(_cycle_graph(40))
    division = divide(inst, DivisionParams(r=12))
    for piece in division.pieces:
        assert len(piece.holes) <= DivisionParams().hole_bound


def test_params_validation():
    with pytest.raises(InvalidParams):
        DivisionParams(r=0)
    with pytest.raises(InvalidParams):
        DivisionParams(sink_bound=1)
    # r*(1-C_P) >= t, that is r >= 2t, so that recursive instances shrink
    with pytest.raises(InvalidParams):
        DivisionParams(r=8)
    DivisionParams(r=12)
    with pytest.raises(InvalidParams):
        DivisionParams(r=11, sink_bound=6)
    DivisionParams(r=12, sink_bound=6)
    with pytest.raises(InvalidParams):
        DivisionParams(budget=-1)
    assert DivisionParams(budget=0).budget == 0


# -- super sinks -------------------------------------------------------------


def test_attach_super_sinks_no_boundary():
    inst = unit_instance(grid_graph(3, 3))
    piece = root_piece(inst)
    bare = dec.Piece(piece.graph, piece.to_parent_vertex, piece.to_parent_edge,
                     frozenset(), frozenset(), [], None)
    attached = attach_super_sinks(bare, [0] * piece.graph.dart_count, [])
    assert attached.sinks == []
    assert attached.graph is piece.graph


def test_attach_super_sinks_single_hole():
    # 5x5 grid minus its center: one non-inherited face, four anchors
    g = grid_graph(5, 5)
    sub, vertex_ids, edge_ids = induced_subgraph(
        g, [v for v in range(25) if v != 12])
    idx = {v: i for i, v in enumerate(vertex_ids)}
    boundary = frozenset(idx[v] for v in (7, 11, 13, 17))
    piece = dec.Piece(sub, vertex_ids, edge_ids, boundary, frozenset())
    piece.holes, piece.external = dec._compute_holes(piece, g)
    assert piece.external is not None and len(piece.external.anchors) == 4
    assert piece.holes == []
    caps = [1] * sub.dart_count
    attached = attach_super_sinks(piece, caps, [])
    assert len(attached.sinks) == 1
    z = attached.sinks[0]
    assert len(attached.graph.rotations[z]) == 4
    ag = attached.graph
    assert ag.vertex_count - ag.edge_count + len(ag.faces) == 2
    # anchor->sink arcs never bottleneck, reverses are closed
    for e in range(sub.edge_count, ag.edge_count):
        assert attached.capacities[2 * e] == sum(caps) + 1
        assert attached.capacities[2 * e + 1] == 0


def test_attach_super_sinks_two_holes_plus_external():
    # 7x7 grid minus two interior vertices and one corner: the two interior
    # faces become holes, the corner-trimmed outer face is external
    g = grid_graph(7, 7)
    removed = {16, 32, 0}
    sub, vertex_ids, edge_ids = induced_subgraph(
        g, [v for v in range(49) if v not in removed])
    idx = {v: i for i, v in enumerate(vertex_ids)}
    anchors = {9, 15, 17, 23, 25, 31, 33, 39, 1, 7}
    boundary = frozenset(idx[v] for v in anchors)
    sources = [idx[24], idx[48]]  # interior: the centre and a far corner
    piece = dec.Piece(sub, vertex_ids, edge_ids, boundary, frozenset(sources))
    holes, external = dec._compute_holes(piece, g)
    assert external is not None
    assert len(holes) == 2 and not any(h.degenerate for h in holes)
    piece.holes, piece.external = holes, external
    attached = attach_super_sinks(piece, [1] * sub.dart_count, sources)
    assert attached.sources == sources
    assert len(attached.sinks) == 3
    ag = attached.graph
    assert ag.vertex_count - ag.edge_count + len(ag.faces) == 2

    # one batched build equals inserting the super sinks one at a time
    corner_lists = [corner_darts(sub, h) for h in holes + [external]]
    one_by_one = sub
    for corners in corner_lists:
        one_by_one = insert_vertices_in_faces(one_by_one, [corners])
    batched = insert_vertices_in_faces(sub, corner_lists)
    assert batched.edges == one_by_one.edges == ag.edges
    assert batched.rotations == one_by_one.rotations == ag.rotations
    apexes = [sub.vertex_count + i for i in range(3)]
    assert attached.sinks == apexes
    assert [len(batched.rotations[z]) for z in apexes] == [
        len(corners) for corners in corner_lists]


def test_attached_capacities_reject_wrong_length():
    inst = unit_instance(grid_graph(3, 3))
    piece = root_piece(inst)
    with pytest.raises(ValueError):
        attach_super_sinks(piece, [1, 2, 3], [])


def test_boundary_ratio_bounded_across_scales():
    """Max piece boundary over sqrt(piece size) stays below the division's
    boundary coefficient on grids of increasing size (measured and
    reported)."""
    params = DivisionParams()
    rows = []
    for n in (100, 1024, 10000):
        side = int(n ** 0.5)
        inst = unit_instance(grid_graph(side, side))
        division = divide(inst, params)
        ratio = max(len(p.boundary) / math.sqrt(p.size)
                    for p in division.pieces)
        rows.append((side * side, round(ratio, 2)))
        assert ratio <= dec.BOUNDARY_COEFF
    print(f"[report] max boundary/sqrt(size) per grid: {rows} "
          f"(coefficient {dec.BOUNDARY_COEFF})")


def test_divide_splits_by_boundary_weight(monkeypatch):
    """A 30x30 grid with 800 sinks leaves pieces within the size bound but
    over the boundary bound, so `divide` weights a separator by boundary:
    0/1 weights summing above the bound. (Unit weights have no 0, and a
    hole split with 0/1 weights has one distinct anchor per hole, so its
    sum is at most the piece's boundary, within the bound.)"""
    separators = []
    separate = dec._separate

    def recording_separate(g, weights):
        separators.append(list(weights))
        return separate(g, weights)

    monkeypatch.setattr(dec, "_separate", recording_separate)
    g = grid_graph(30, 30)
    sinks = sorted(random.Random(0).sample(range(1, g.vertex_count), 800))
    inst = Instance(g, [1] * g.dart_count, [0], sinks)
    params = DivisionParams(r=12, budget=0)
    division = divide(inst, params)
    n0 = g.vertex_count
    max_size = dec.C_P * n0
    max_boundary = dec.BOUNDARY_COEFF * math.sqrt(dec.C_P * n0)
    by_boundary = [w for w in separators
                   if set(w) == {0, 1} and sum(w) > max_boundary]
    assert by_boundary
    for piece in division.pieces:
        assert piece.size <= max_size
        assert len(piece.boundary) <= max_boundary
        assert len(piece.holes) <= params.hole_bound


# -- division identity and work ------------------------------------------


def _with_extra_sinks(inst, count, seed):
    rng = random.Random(f"extra-sinks:{seed}")
    taken = set(inst.sources) | set(inst.sinks)
    free = [v for v in range(inst.graph.vertex_count) if v not in taken]
    return Instance(inst.graph, inst.capacities, inst.sources,
                    sorted(inst.sinks + rng.sample(free, count)))


def _division_digest(division):
    def hole(h):
        return None if h is None else (h.face, h.anchors, h.degenerate)

    pieces = [(p.to_parent_vertex, p.to_parent_edge, sorted(p.boundary),
               sorted(p.sources), [hole(h) for h in p.holes], hole(p.external))
              for p in division.pieces]
    text = repr((pieces, division.separators))
    return hashlib.sha256(text.encode()).hexdigest()


# grid-900, grid-2000 and tri-1000-5-sinks: the seed-0 instances of the
# three benchmark workloads, whose divisions are pinned below
_PINNED_DIVISIONS = [
    lambda: generate_instance("grid", 900, 0, 100, 4),
    lambda: generate_instance("grid", 2000, 0, 100, 200),
    lambda: _with_extra_sinks(
        generate_instance("triangulation", 1000, 0, 100, 32), 4, 0),
]


@pytest.mark.parametrize("build, digest", zip(_PINNED_DIVISIONS, [
    "7ea47abd7932b0414cc8eff1b2c9ebde4a8e127efffe86f6a40af4e42c6b7347",
    "98724e34ff90a8630c62d5329a63d9f27c368f87c8216d9b6c905856d9df1331",
    "44e73d73448b1fe84e12b6a6aa0ce6c9d0644f3078d6db231b107ee27e3b64bd",
]), ids=["grid-900", "grid-2000", "tri-1000-5-sinks"])
def test_division_pieces_are_pinned(build, digest):
    """Every finished piece and separator of one division, hashed, so a
    change to how `divide` works cannot change what it returns."""
    division = divide(build(), DivisionParams())
    assert _division_digest(division) == digest


def test_divide_builds_each_side_once_and_walks_finished_holes(monkeypatch):
    """One divide of a 900-vertex grid builds its 6 subpieces, each
    connected, and no other graph (its 3 separators fan-triangulate
    without a build), and walks holes once per finished piece."""
    builds = 0
    init = dec.EmbeddedGraph.__init__

    def counting_init(self, *args):
        nonlocal builds
        builds += 1
        init(self, *args)

    hole_walks = 0
    compute_holes = dec._compute_holes

    def counting_holes(*args):
        nonlocal hole_walks
        hole_walks += 1
        return compute_holes(*args)

    queued: list[bool] = []
    make_subpiece = dec._make_subpiece

    def recording_subpiece(*args, **kwargs):
        sub = make_subpiece(*args, **kwargs)
        queued.append(sub.graph.connected)
        return sub

    inst = generate_instance("grid", 900, 0, 100, 4)
    monkeypatch.setattr(dec.EmbeddedGraph, "__init__", counting_init)
    monkeypatch.setattr(dec, "_compute_holes", counting_holes)
    monkeypatch.setattr(dec, "_make_subpiece", recording_subpiece)
    division = divide(inst, DivisionParams())
    assert len(division.pieces) == 4
    assert builds == 6
    assert hole_walks == len(division.pieces)
    assert queued and all(queued)


def test_derived_builds_match_a_checked_build(monkeypatch):
    """A graph that `induced_subgraph` or `insert_vertices_in_faces`
    derives from a validated graph skips the structure check. Every one
    made while solving the criteria 4 and 6 corpora and the three pinned
    instances, rebuilt through `build_graph` with every check, has the
    same faces, dart faces, dart tails and component count."""
    init = dec.EmbeddedGraph.__init__
    derived = 0
    mismatches = []

    def checking_init(self, n, edges, rotations, dart_tails=None):
        nonlocal derived
        init(self, n, edges, rotations, dart_tails)
        if dart_tails is not None:
            derived += 1
            checked = build_graph(n, edges, rotations)
            if ((checked.faces, checked.dart_face, checked.dart_tails,
                 checked.component_count) !=
                    (self.faces, self.dart_face, self.dart_tails,
                     self.component_count)):
                mismatches.append((n, len(edges)))

    monkeypatch.setattr(dec.EmbeddedGraph, "__init__", checking_init)
    for seed0, max_n in ((40_000, 100), (80_000, 120)):
        for inst in _acceptance_corpus(100, seed0=seed0, max_n=max_n):
            solve_recursive(inst, DivisionParams(r=32, budget=0))
    for build in _PINNED_DIVISIONS:
        solve_recursive(build(), DivisionParams(budget=0))
    assert derived > 0
    assert not mismatches
