"""Combinatorially embedded directed planar multigraphs.

A graph is described by a rotation system: every undirected embedded edge
contributes two oppositely directed darts, and each vertex lists its
outgoing darts in cyclic order. Faces are derived by traversal, and a
rotation system is accepted as planar exactly when Euler's formula holds
for every connected component.

A graph grows in one way: `grow_rotations` copies the rotations with new
darts right after given darts. Super sinks inside faces
(`insert_vertices_in_faces`) append the rotations of the new vertices
to the grown ones and build once, and the fan chords of a separator's
triangulation (``decomposition.triangulate``) grow the rotations the
same way without a build, so every old dart and vertex keeps its id.
`components` is the one component search, used for `component_count`
and by divisions, and `induced_subgraph` cuts out a subgraph with its
vertex and edge ids.

Every graph from input (`build_graph`, so every parsed and generated
graph) is checked in full. A graph that `induced_subgraph` or
`insert_vertices_in_faces` derives from one already built passes its
dart tails to the constructor, which then skips the structure check and
the copies of edges and rotations; its face traversal and Euler check
still run.

Dart numbering convention: edge ``e = (u, v)`` owns darts ``2e`` (u -> v)
and ``2e + 1`` (v -> u); ``rev(d) == d ^ 1``.
"""

from __future__ import annotations

from .errors import DanglingDart, NonEmbedding


class EmbeddedGraph:
    """Immutable planar multigraph with an explicit combinatorial embedding.

    Attributes:
        vertex_count: number of vertices (ids 0..n-1).
        edges: list of (tail, head) pairs; index is the edge id.
        rotations: per-vertex cyclic order of outgoing darts.
        faces: list of dart cycles obtained by face traversal.
        dart_face: face id of every dart.
        dart_tails: tail vertex of every dart.

    Pass `dart_tails` only for a graph derived from a validated one, as
    `induced_subgraph` and `insert_vertices_in_faces` do: the structure
    check and the copies of `edges` and `rotations` are then skipped.
    Faces and Euler's formula are checked either way.
    """

    __slots__ = (
        "vertex_count",
        "edges",
        "rotations",
        "faces",
        "dart_face",
        "component_count",
        "dart_tails",
        "_rot_next",
    )

    def __init__(self, vertex_count: int, edges: list[tuple[int, int]],
                 rotations: list[list[int]],
                 dart_tails: list[int] | None = None):
        self.vertex_count = vertex_count
        if dart_tails is None:
            self.edges = [(int(u), int(v)) for u, v in edges]
            self.rotations = [list(r) for r in rotations]
            self._check_structure()
        else:
            self.edges = edges
            self.rotations = rotations
            self.dart_tails = dart_tails
        self._compute_traversal()
        self._check_euler()

    # -- basic dart accessors ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def dart_count(self) -> int:
        return 2 * len(self.edges)

    def tail(self, dart: int) -> int:
        return self.dart_tails[dart]

    def head(self, dart: int) -> int:
        return self.dart_tails[dart ^ 1]

    def next_face_dart(self, dart: int) -> int:
        """Successor of a dart along its face cycle."""
        return self._rot_next[dart ^ 1]

    @property
    def connected(self) -> bool:
        return self.component_count <= 1

    # -- construction checks ---------------------------------------------

    def _check_structure(self) -> None:
        n, m = self.vertex_count, len(self.edges)
        if len(self.rotations) != n:
            raise NonEmbedding(
                f"expected {n} rotation lists, got {len(self.rotations)}")
        tails = [0] * (2 * m)
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise NonEmbedding(f"edge {e} endpoint out of range: ({u}, {v})")
            if u == v:
                raise NonEmbedding(f"edge {e} is a self-loop at vertex {u}")
            tails[2 * e] = u
            tails[2 * e + 1] = v
        self.dart_tails = tails

        seen = [False] * (2 * m)
        for v, rot in enumerate(self.rotations):
            for d in rot:
                if not (0 <= d < 2 * m):
                    raise DanglingDart(f"rotation of vertex {v} references dart {d}")
                if seen[d]:
                    raise NonEmbedding(f"dart {d} appears in more than one rotation slot")
                if tails[d] != v:
                    raise NonEmbedding(
                        f"dart {d} has tail {tails[d]} but sits in rotation of {v}")
                seen[d] = True
        if not all(seen):
            missing = seen.index(False)
            raise NonEmbedding(f"dart {missing} missing from all rotations")

    def _compute_traversal(self) -> None:
        rot_next = [0] * self.dart_count
        for rot in self.rotations:
            k = len(rot)
            for i, d in enumerate(rot):
                rot_next[d] = rot[(i + 1) % k]
        self._rot_next = rot_next

        dart_face = [-1] * self.dart_count
        faces: list[list[int]] = []
        for start in range(self.dart_count):
            if dart_face[start] >= 0:
                continue
            fid = len(faces)
            cycle = []
            d = start
            while dart_face[d] < 0:
                dart_face[d] = fid
                cycle.append(d)
                d = rot_next[d ^ 1]
            if d != start:
                # cannot happen while rotations form a permutation
                raise NonEmbedding("face traversal did not close into a cycle")
            faces.append(cycle)
        self.faces = faces
        self.dart_face = dart_face

    def _check_euler(self) -> None:
        n, m = self.vertex_count, len(self.edges)
        count = self.component_count = len(components(self, range(n)))
        # an isolated vertex has one face the dart traversal cannot see
        isolated = sum(1 for rot in self.rotations if not rot)
        if n - m + len(self.faces) + isolated != 2 * count:
            raise NonEmbedding(
                f"Euler check failed: V={n} E={m} F={len(self.faces)} "
                f"isolated={isolated} components={count}")


def build_graph(vertex_count: int, edges: list[tuple[int, int]],
                rotations: list[list[int]]) -> EmbeddedGraph:
    """Validate and build an embedded graph from a rotation system.

    Raises NonEmbedding if the rotation system is not a (per-component)
    planar embedding, DanglingDart if a rotation references an unknown dart.
    """
    return EmbeddedGraph(vertex_count, edges, rotations)


def components(g: EmbeddedGraph, kept) -> list[list[int]]:
    """Vertex lists of the components of the subgraph of `g` induced by
    `kept`, ordered by smallest vertex; an isolated vertex is its own."""
    tails, rotations = g.dart_tails, g.rotations
    unseen = [False] * g.vertex_count
    for v in kept:
        unseen[v] = True
    out = []
    for s in range(g.vertex_count):
        if not unseen[s]:
            continue
        unseen[s] = False
        comp = [s]
        for v in comp:
            for d in rotations[v]:
                w = tails[d ^ 1]
                if unseen[w]:
                    unseen[w] = False
                    comp.append(w)
        out.append(comp)
    return out


# -- subgraphs -----------------------------------------------------------


def induced_subgraph(g: EmbeddedGraph, vertices
                     ) -> tuple[EmbeddedGraph, list[int], list[int]]:
    """The subgraph of `g` induced by a vertex set, with its maps into `g`.

    Returns ``(graph, vertex_ids, edge_ids)``: local vertex ``i`` is
    ``vertex_ids[i]`` of `g` (ascending) and local edge ``e`` is
    ``edge_ids[e]`` (ascending, so the kept edges keep `g`'s order). Only
    the kept vertices' rotations are read; each is restricted to the kept
    darts, which is again a valid (possibly disconnected) planar embedding.
    """
    vertex_ids = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vertex_ids)}
    tails, rotations = g.dart_tails, g.rotations
    # an edge is kept once, from its tail's dart 2e, when its head is kept
    edge_ids = sorted(d >> 1 for v in vertex_ids for d in rotations[v]
                      if not d & 1 and tails[d + 1] in index)
    edges = []
    local_tails = []
    dart_map = {}  # dart of g -> local dart
    for i, e in enumerate(edge_ids):
        dart_map[2 * e] = 2 * i
        dart_map[2 * e + 1] = 2 * i + 1
        u, v = g.edges[e]
        edge = (index[u], index[v])
        edges.append(edge)
        local_tails += edge
    local_rotations = [[dart_map[d] for d in rotations[v] if d in dart_map]
                       for v in vertex_ids]
    return (EmbeddedGraph(len(vertex_ids), edges, local_rotations, local_tails),
            vertex_ids, edge_ids)


# -- growth --------------------------------------------------------------


def grow_rotations(rotations: list[list[int]],
                   after: dict[int, list[int]]) -> list[list[int]]:
    """Copies of `rotations` with the darts `after[d]` right after dart `d`."""
    grown_rotations = []
    for rot in rotations:
        grown = []
        for d in rot:
            grown.append(d)
            grown.extend(after.get(d, ()))
        grown_rotations.append(grown)
    return grown_rotations


def insert_vertices_in_faces(g: EmbeddedGraph,
                             corner_lists: list[list[int]]) -> EmbeddedGraph:
    """Insert one new vertex per corner list, all in a single graph build.

    Each list holds arrival darts of `g` on a single face; its new vertex
    gets one edge to the head of each, in the order of the face walk. No
    corner dart may appear in two lists. The new vertices are
    ``g.vertex_count``, ``g.vertex_count + 1``, ... and their edges are
    appended, both in list order, so capacities or flows indexed by dart
    carry over unchanged: each rotation of `g` is copied with the new
    darts right after the darts they follow (`grow_rotations`). An empty
    batch returns `g`. Every new dart is placed at its tail, so the build
    skips the structure check, though faces and Euler's formula are still
    checked.
    """
    if not corner_lists:
        return g
    n = g.vertex_count
    edges = list(g.edges)
    after: dict[int, list[int]] = {}  # rev(arrival dart) -> new dart at anchor
    apex_rotations: list[list[int]] = []
    for corner_darts in corner_lists:
        if not corner_darts:
            raise ValueError("need at least one corner dart")
        fid = g.dart_face[corner_darts[0]]
        pos = {d: i for i, d in enumerate(g.faces[fid])}
        for d in corner_darts:
            if g.dart_face[d] != fid:
                raise ValueError("corner darts must belong to a single face")
        order = sorted(corner_darts, key=lambda d: pos[d])
        if len(set(g.head(d) for d in order)) != len(order):
            raise ValueError("one edge per anchor vertex: duplicate corner vertex")

        apex = n + len(apex_rotations)
        ids = []
        for d in order:
            if d ^ 1 in after:
                raise ValueError(f"corner dart {d} appears in two corner lists")
            e = len(edges)
            edges.append((g.head(d), apex))
            ids.append(e)
            after[d ^ 1] = [2 * e]
        # Apex sees its anchors in reverse walk order (face traversal closes
        # each sub-face by stepping backwards around the new vertex).
        apex_rotations.append([2 * e + 1 for e in reversed(ids)])
    rotations = grow_rotations(g.rotations, after) + apex_rotations
    tails = list(g.dart_tails)
    for edge in edges[g.edge_count:]:
        tails += edge
    return EmbeddedGraph(n + len(apex_rotations), edges, rotations, tails)
