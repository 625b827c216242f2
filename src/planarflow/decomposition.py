"""Cycle separators, hole-bounded divisions, and super-sink attachment.

A piece is a subgraph of a level graph together with its boundary (the
vertices shared with other pieces or marked terminal) and its holes (the
faces not inherited from the level graph, plus degenerate single-vertex
holes for boundary vertices not lying on any such face). ``divide`` takes
a level ``Instance`` and splits its root piece (the whole graph, with the
sinks as boundary) with balanced cycle separators until every subpiece
satisfies the size, boundary and hole bounds. A disconnected level, or
side of a separator, is split into its components
(``embedding.components``) before any subgraph is built (subpieces of a
connected piece stay connected), and holes are computed, against the
level graph, only for pieces within the size and boundary bounds, so
every finished piece has them.

Separators are fundamental cycles of a BFS tree in a scratch copy whose
faces are fanned into triangles in one pass and one ``embedding.splice``.
The copy may have parallel edges, so a fundamental cycle may have two
darts. Candidates are ranked by dual-tree subtree weights, the two sides
of a candidate come from the dual subtree under its non-tree edge, and
the 2/3 balance of both sides is checked exactly before use. A
candidate is used only when both sides hold a vertex, so each side with
the cycle is smaller than the piece; a graph without such a candidate
(a triangle or a 4-cycle) raises ``SeparatorFailed``.

``attach_super_sinks`` turns a piece into an ``Instance`` of its own: the
given sources against one super sink per hole, each embedded by
``embedding.insert_vertices_in_faces``, from the first dart into each
anchor along one walk of the hole's face.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .embedding import (EmbeddedGraph, components, induced_subgraph,
                        insert_vertices_in_faces, splice)
from .errors import CannotSatisfyBounds, InvalidParams, NotConnected, SeparatorFailed
from .formats import Instance


# -- scratch triangulation --------------------------------------------------


def triangulate(g: EmbeddedGraph) -> EmbeddedGraph:
    """Fan-triangulated scratch copy in one graph build; ids are preserved.

    Every face walk longer than three darts is fanned from its first corner
    whose vertex occurs once on the walk. Such a corner exists: a vertex
    with two corners on a face is a cut vertex of the face's boundary, and
    every leaf block of that boundary has a vertex that is not. So no chord
    is a loop, though a chord may run parallel to an edge: the separator
    needs every face to be a triangle, not the copy to be simple. `g.edges`
    is a prefix of the result's edges; `g` itself is returned when every
    face is already a triangle.
    """
    tails = g.dart_tails
    edges = list(g.edges)
    after: dict[int, list[int]] = {}  # dart -> chord darts right after it
    for walk in g.faces:
        k = len(walk)
        if k <= 3:
            continue
        heads = [tails[d ^ 1] for d in walk]
        j = 0
        if len(set(heads)) < k:
            counts = Counter(heads)
            j = next(j for j, h in enumerate(heads) if counts[h] == 1)
        w = walk[j + 1:] + walk[: j + 1]  # anchor corner now last
        u = heads[j]
        at_anchor = []
        for d in w[1:k - 2]:
            e = len(edges)
            edges.append((u, tails[d ^ 1]))
            at_anchor.append(2 * e)
            after[d ^ 1] = [2 * e + 1]
        after[w[-1] ^ 1] = at_anchor[::-1]
    return splice(g, edges, after)


# -- separator ----------------------------------------------------------------


def _bfs_tree(g: EmbeddedGraph, root: int):
    """BFS parent darts, depths and visit order from `root`."""
    tails, rotations = g.dart_tails, g.rotations
    parent_dart = [-1] * g.vertex_count
    depth = [-1] * g.vertex_count
    depth[root] = 0
    order = [root]
    for v in order:
        for d in rotations[v]:
            w = tails[d ^ 1]
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                parent_dart[w] = d
                order.append(w)
    return parent_dart, depth, order


def _center_root(g: EmbeddedGraph) -> int:
    """Middle of the path between the ends of a double BFS sweep."""
    _, _, order = _bfs_tree(g, 0)
    parent_dart, depth, order = _bfs_tree(g, order[-1])
    v = order[-1]
    for _ in range(depth[v] // 2):
        v = g.tail(parent_dart[v])
    return v


def _fundamental_cycle(tg: EmbeddedGraph, e: int, parent_dart, depth):
    """Dart cycle (tree path + non-tree edge) through edge e.

    It has two darts when e runs parallel to a tree edge.
    """
    u, v = tg.edges[e]
    up_u: list[int] = []
    up_v: list[int] = []
    x, y = u, v
    while depth[x] > depth[y]:
        d = parent_dart[x]
        up_u.append(d)
        x = tg.tail(d)
    while depth[y] > depth[x]:
        d = parent_dart[y]
        up_v.append(d)
        y = tg.tail(d)
    while x != y:
        d = parent_dart[x]
        up_u.append(d)
        x = tg.tail(d)
        d = parent_dart[y]
        up_v.append(d)
        y = tg.tail(d)
    # walk: lca -> u (tree), u -> v (edge e), v -> lca (tree, reversed)
    cyc = [d for d in reversed(up_u)]
    cyc.append(2 * e)  # dart u->v
    cyc.extend(d ^ 1 for d in up_v)
    return cyc


def _separate(g: EmbeddedGraph, weights: list[int]):
    """Balanced cycle separator: (cycle vertices, side A, side B), both
    sides non-empty; SeparatorFailed when no candidate is balanced and
    leaves vertices on both sides (on a triangle or a 4-cycle, say).

    The non-tree edges of a BFS tree form a spanning tree of the dual, and
    the fundamental cycle of a non-tree edge e encloses exactly the faces
    of the dual subtree below e. A vertex off the cycle lies on the side of
    every face around it.
    """
    n = g.vertex_count
    if not g.connected:
        raise NotConnected("cycle separator needs a connected graph")
    if n < 3:
        raise SeparatorFailed("graph too small to contain a cycle")
    total = sum(weights)

    tg = triangulate(g)
    root = _center_root(tg)
    parent_dart, depth, _ = _bfs_tree(tg, root)
    tree_edge = [False] * tg.edge_count
    for v in range(n):
        if parent_dart[v] >= 0:
            tree_edge[parent_dart[v] >> 1] = True
    nontree = [e for e in range(tg.edge_count) if not tree_edge[e]]
    if not nontree:
        raise SeparatorFailed("graph is a tree; no cycle exists")

    # dual tree over faces linked by non-tree edges
    fcount = len(tg.faces)
    dual_adj: list[list[tuple[int, int]]] = [[] for _ in range(fcount)]
    for e in nontree:
        f1 = tg.dart_face[2 * e]
        f2 = tg.dart_face[2 * e + 1]
        dual_adj[f1].append((f2, e))
        dual_adj[f2].append((f1, e))
    rep_face = [tg.dart_face[rot[0]] for rot in tg.rotations]
    face_w = [0] * fcount
    for v in range(n):
        face_w[rep_face[v]] += weights[v]
    children: list[list[int]] = [[] for _ in range(fcount)]
    below: dict[int, int] = {}  # non-tree edge -> the face just under it
    order = [0]
    seen = [False] * fcount
    seen[0] = True
    for f in order:
        for (f2, e) in dual_adj[f]:
            if not seen[f2]:
                seen[f2] = True
                children[f].append(f2)
                below[e] = f2
                order.append(f2)
    subtree = list(face_w)
    for f in reversed(order):
        for c in children[f]:
            subtree[f] += subtree[c]

    half = total / 2.0

    def rank(e):
        return (abs(subtree[below[e]] - half), e)

    for e in _by_rank(below, rank):
        cyc = _fundamental_cycle(tg, e, parent_dart, depth)
        inside = [False] * fcount
        stack = [below[e]]
        while stack:
            f = stack.pop()
            inside[f] = True
            stack.extend(children[f])
        # the faces of the cycle's own darts lie on side B
        a_inside = not inside[tg.dart_face[cyc[0]]]
        cyc_vertices = [tg.tail(d) for d in cyc]
        on_cycle = set(cyc_vertices)
        side_a: list[int] = []
        side_b: list[int] = []
        for v in range(n):
            if v not in on_cycle:
                (side_a if inside[rep_face[v]] == a_inside else side_b).append(v)
        wa = sum(weights[v] for v in side_a)
        wb = sum(weights[v] for v in side_b)
        if side_a and side_b and (
                total == 0 or (3 * wa <= 2 * total and 3 * wb <= 2 * total)):
            return cyc_vertices, side_a, side_b
    raise SeparatorFailed(f"no balanced fundamental cycle with two non-empty "
                          f"sides among {len(below)} candidates")


def _by_rank(candidates, rank):
    """`candidates` in ascending rank, sorted only once the best is rejected."""
    best = min(candidates, key=rank)
    yield best
    yield from sorted(candidates, key=rank)[1:]


def cycle_separator(g: EmbeddedGraph, weights: list[int] | None = None) -> list[int]:
    """Vertices of a simple cycle whose removal leaves no side heavier than
    2/3 of the total weight and vertices on both of its sides.

    The cycle lies in the fan-triangulated copy of `g`: consecutive
    vertices are joined by an edge or a chord, and two vertices joined by
    parallel edges form a cycle. A graph with no such cycle, as a
    triangle or a 4-cycle, raises SeparatorFailed.
    """
    if weights is None:
        weights = [1] * g.vertex_count
    cycle, _, _ = _separate(g, weights)
    return cycle


# -- pieces and divisions ---------------------------------------------------


@dataclass(frozen=True)
class Hole:
    """A face of a piece that feeds a super sink, with its anchor vertices."""

    face: int
    anchors: tuple[int, ...]
    degenerate: bool = False


@dataclass
class Piece:
    """Subgraph of a level graph with boundary, sources and hole bookkeeping.

    Vertex and dart ids in `boundary`, `sources` and holes are local to
    `graph`; the `to_parent_*` maps translate to the level graph.
    """

    graph: EmbeddedGraph
    to_parent_vertex: list[int]
    to_parent_edge: list[int]
    boundary: frozenset[int]
    sources: frozenset[int]
    holes: list[Hole] = field(default_factory=list)
    external: Hole | None = None

    @property
    def size(self) -> int:
        return self.graph.vertex_count

    def to_parent_dart(self, dart: int) -> int:
        return 2 * self.to_parent_edge[dart >> 1] | (dart & 1)

    def parent_boundary(self) -> set[int]:
        return {self.to_parent_vertex[v] for v in self.boundary}


@dataclass
class DivisionParams:
    """Knobs for one division level and the recursion driven by it."""

    c_p: float = 0.5         # max piece size as a fraction of the parent
    boundary_coeff: float = 10.0
    sink_bound: int = 6      # t: max sinks per recursive instance
    r: int = 64              # base-case size: recursion stops at or below

    def __post_init__(self):
        if not 0 < self.c_p < 1:
            raise InvalidParams("c_p must lie strictly between 0 and 1")
        if self.sink_bound < 2:
            raise InvalidParams("sink bound must be at least 2")
        if self.r < 2:
            raise InvalidParams("r must be at least 2")
        if not 0 < self.boundary_coeff < math.inf:
            raise InvalidParams("boundary_coeff must be finite and positive")
        # a subproblem is a piece plus its super sinks; it must end up smaller
        # than the level it came from or the recursion cannot bottom out
        if self.r * (1 - self.c_p) < self.sink_bound:
            raise InvalidParams(
                f"r={self.r} too small for c_p={self.c_p}, t={self.sink_bound}: "
                "need r*(1-c_p) >= t so recursive instances shrink")

    @property
    def hole_bound(self) -> int:
        return self.sink_bound - 1


@dataclass
class Division:
    """A one-level split of a piece into bound-satisfying subpieces."""

    parent_piece: Piece
    pieces: list[Piece]
    separators: list[list[int]]  # level-graph vertex ids per separator


def division_tree(division: Division, indent: int = 0) -> str:
    """Human-readable nested dump of a division for debugging."""
    pad = "  " * indent
    root = division.parent_piece
    lines = [f"{pad}divide n={root.size} boundary={len(root.boundary)} "
             f"holes={len(root.holes)} -> {len(division.pieces)} pieces, "
             f"{len(division.separators)} separators"]
    for i, piece in enumerate(division.pieces):
        lines.append(
            f"{pad}  [{i}] n={piece.size} boundary={len(piece.boundary)} "
            f"holes={len(piece.holes)}"
            f"{' +external' if piece.external else ''} "
            f"sources={len(piece.sources)}")
    return "\n".join(lines)


def _compute_holes(piece: Piece, level: EmbeddedGraph):
    """Holes of a piece of `level`: non-inherited faces carrying boundary
    vertices, plus degenerate holes for boundary vertices not covered by
    them."""
    graph, boundary = piece.graph, piece.boundary
    up = [piece.to_parent_dart(d) for d in range(graph.dart_count)]
    rot_next, level_rot_next = graph._rot_next, level._rot_next
    tails = graph.dart_tails
    entries: list[Hole] = []
    for fid, walk in enumerate(graph.faces):
        # a face is inherited when each step of its walk is a level step
        if all(level_rot_next[up[d] ^ 1] == up[rot_next[d ^ 1]] for d in walk):
            continue
        anchors = []
        seen = set()
        for d in walk:
            h = tails[d ^ 1]
            if h in boundary and h not in seen:
                seen.add(h)
                anchors.append(h)
        if anchors:
            entries.append(Hole(fid, tuple(anchors)))

    external = None
    if entries:
        external = max(entries, key=lambda h: (len(graph.faces[h.face]), -h.face))
        entries = [h for h in entries if h is not external]

    covered = set()
    for h in entries:
        covered.update(h.anchors)
    if external:
        covered.update(external.anchors)
    return entries + _degenerate_holes(graph, boundary - covered), external


def _degenerate_holes(graph: EmbeddedGraph, vertices) -> list[Hole]:
    """One single-vertex hole per non-isolated vertex, in ascending order,
    on the lowest-numbered face around it."""
    return [Hole(min(graph.dart_face[d] for d in graph.rotations[v]), (v,),
                 degenerate=True)
            for v in sorted(vertices) if graph.rotations[v]]


def root_piece(instance: Instance) -> Piece:
    """The whole level graph viewed as a piece: sinks become boundary
    vertices, each defining a degenerate hole. Every face is inherited, so
    there is no other hole and no external face."""
    g = instance.graph
    boundary = frozenset(instance.sinks)
    return Piece(
        graph=g,
        to_parent_vertex=list(range(g.vertex_count)),
        to_parent_edge=list(range(g.edge_count)),
        boundary=boundary,
        sources=frozenset(instance.sources),
        holes=_degenerate_holes(g, boundary),
    )


def _make_subpiece(piece: Piece, kept_local, extra_boundary=()) -> Piece:
    """Subpiece induced by `kept_local`, without holes: `divide` computes
    them once the subpiece meets the size and boundary bounds. Every
    `extra_boundary` vertex must be kept."""
    sub = induced_subgraph(piece.graph, kept_local)
    to_parent_vertex = [piece.to_parent_vertex[v] for v in sub.to_parent_vertex]
    to_parent_edge = [piece.to_parent_edge[e] for e in sub.to_parent_edge]
    idx = sub.parent_vertex_index  # piece-local -> sub-local
    boundary = frozenset(
        idx[v] for v in set(extra_boundary) | (set(piece.boundary) & idx.keys()))
    sources = frozenset(idx[v] for v in piece.sources if v in idx)
    return Piece(sub.graph, to_parent_vertex, to_parent_edge, boundary, sources)


def divide(instance: Instance, params: DivisionParams) -> Division:
    """Split a level instance's graph, as its root piece, until every
    subpiece meets the three division bounds.

    Splits target the first violated criterion in the cyclic order (size,
    boundary, holes), weighting the separator accordingly: unit weights,
    weight on boundary vertices, or weight on one representative per hole.
    A disconnected level is split into its components first, and
    each side of a separator (with the cycle) before any graph is built,
    so every queued subpiece is connected. Holes are computed only for
    subpieces within the size and boundary bounds, which every finished
    piece is.
    """
    piece = root_piece(instance)
    n0 = piece.size
    if n0 <= params.r:
        raise InvalidParams(f"piece of size {n0} needs no division (r={params.r})")
    max_size = params.c_p * n0
    max_boundary = params.boundary_coeff * math.sqrt(params.c_p * n0)
    hole_bound = params.hole_bound

    queue = [piece]
    if piece.graph.component_count > 1:
        queue = [_make_subpiece(piece, comp)
                 for comp in components(piece.graph, range(n0))]
    finished: list[Piece] = []
    separators: list[list[int]] = []
    budget = 64 + 16 * n0.bit_length()
    while queue:
        q = queue.pop()
        if q.size > max_size:
            weights = [1] * q.size
        elif len(q.boundary) > max_boundary:
            weights = [0] * q.size
            for v in q.boundary:
                weights[v] = 1
        else:
            q.holes, q.external = _compute_holes(q, instance.graph)
            if len(q.holes) <= hole_bound:
                finished.append(q)
                continue
            weights = [0] * q.size
            for h in q.holes:
                weights[h.anchors[0]] += 1

        if budget == 0:
            raise CannotSatisfyBounds(
                f"split budget exhausted dividing a piece of size {n0}")
        budget -= 1
        cycle, side_a, side_b = _separate(q.graph, weights)
        separators.append([q.to_parent_vertex[v] for v in cycle])
        on_cycle = set(cycle)
        for side in (side_a, side_b):
            # the other side is non-empty, so every subpiece is smaller
            kept = on_cycle.union(side)
            for comp in components(q.graph, kept):
                queue.append(_make_subpiece(
                    q, comp, extra_boundary=on_cycle.intersection(comp)))

    finished.sort(key=lambda pc: min(pc.to_parent_vertex))
    return Division(piece, finished, separators)


# -- super sinks -------------------------------------------------------------


def attach_super_sinks(piece: Piece, capacities: list[int],
                       sources: list[int]) -> Instance:
    """The piece as an instance of its own: `sources` (piece-local) against
    one super sink inside every hole, and inside the external face when it
    carries boundary vertices, linked to each anchor by a never-bottleneck
    arc. Dart ids of the piece are preserved, so `capacities` (one per piece
    dart, else ValueError) carries over; new arcs get capacity sum+1 toward
    the sink, 0 back. The super sinks are the instance's sinks, in hole
    order with the external face last.
    """
    g = piece.graph
    entries = list(piece.holes)
    if piece.external is not None:
        entries.append(piece.external)
    corner_lists = []
    for h in entries:
        # the first dart into each anchor along one walk of the hole's face
        first = {g.head(d): d for d in reversed(g.faces[h.face])}
        corner_lists.append([first[v] for v in h.anchors])
    grown = insert_vertices_in_faces(g, corner_lists)
    never_bottleneck = sum(capacities) + 1
    caps = capacities + [never_bottleneck, 0] * (grown.edge_count - g.edge_count)
    return Instance(grown, caps, list(sources),
                    list(range(g.vertex_count, grown.vertex_count)))
