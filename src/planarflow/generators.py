"""Seeded generators for embedded test and benchmark instances.

Both generators know their embedding by construction, so no planarity
testing is ever needed: grids use the compass rotation order, random
triangulations are grown by repeated in-face vertex insertion on plain
rotation lists. Each generator validates its graph once, in one
`build_graph` call at the end.
"""

from __future__ import annotations

import bisect
import random

from .embedding import EmbeddedGraph, build_graph
from .errors import InvalidParams
from .formats import Instance

KINDS = ("grid", "triangulation")


def grid_graph(rows: int, cols: int) -> EmbeddedGraph:
    """Axis-aligned grid with row-major vertex ids and CCW rotations."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidParams("grid needs at least two vertices")
    edges: list[tuple[int, int]] = []
    east = {}
    south = {}
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                east[v] = len(edges)
                edges.append((v, v + 1))
            if i + 1 < rows:
                south[v] = len(edges)
                edges.append((v, v + cols))
    rotations = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            rot = []
            if j + 1 < cols:          # east, outgoing dart of its edge
                rot.append(2 * east[v])
            if i - 1 >= 0:            # north = reverse of the south edge above
                rot.append(2 * south[v - cols] + 1)
            if j - 1 >= 0:            # west
                rot.append(2 * east[v - 1] + 1)
            if i + 1 < rows:          # south
                rot.append(2 * south[v])
            rotations.append(rot)
    return build_graph(rows * cols, edges, rotations)


def stacked_triangulation(n: int, rng: random.Random) -> EmbeddedGraph:
    """Random triangulation grown by splitting faces with new degree-3 vertices.

    Starts from a triangle; every step stars a new vertex into a random
    face, which keeps all faces triangles. Returns a connected, simple,
    fully triangulated planar graph on exactly n >= 3 vertices.

    The graph grows on mutable edge and rotation lists and is built once,
    at the end. It equals, id for id, the graph made by calling
    `insert_vertices_in_faces(g, [g.faces[rng.randrange(len(g.faces))]])`
    once per new vertex.
    """
    if n < 3:
        raise InvalidParams("triangulation needs at least 3 vertices")
    edges = [(0, 1), (1, 2), (2, 0)]
    rotations = [[0, 5], [2, 1], [4, 3]]
    # Face walks keyed by their smallest dart, each walk starting at that
    # dart. EmbeddedGraph numbers faces in the order of their smallest
    # dart and starts each walk there, so the k-th key names g.faces[k].
    faces = {0: [0, 2, 4], 1: [1, 5, 3]}
    keys = [0, 1]
    for apex in range(3, n):
        walk = faces[keys[rng.randrange(len(keys))]]
        ids = []
        for d in walk:
            head = edges[d >> 1][1 - (d & 1)]
            e = len(edges)
            edges.append((head, apex))
            ids.append(e)
            rot = rotations[head]
            rot.insert(rot.index(d ^ 1) + 1, 2 * e)
        rotations.append([2 * e + 1 for e in reversed(ids)])
        # every new dart id exceeds every old one, so each new face is
        # keyed by, and starts at, the old dart it keeps
        for i, d in enumerate(walk):
            faces[d] = [d, 2 * ids[i], 2 * ids[i - 1] + 1]
        bisect.insort(keys, walk[1])
        bisect.insort(keys, walk[2])
    return build_graph(n, edges, rotations)


def generate_instance(kind: str, n: int, seed: int, cap_max: int,
                      source_count: int) -> Instance:
    """Deterministic seeded instance: valid embedding, integer capacities in
    [1, cap_max], `source_count` distinct sources and one sink."""
    if kind not in KINDS:
        raise InvalidParams(f"unknown kind {kind!r}; choose from {KINDS}")
    if n < 2:
        raise InvalidParams("n must be at least 2")
    if cap_max < 1:
        raise InvalidParams("cap_max must be at least 1")
    if source_count < 1:
        raise InvalidParams("source_count must be at least 1")

    rng = random.Random(f"{kind}:{n}:{seed}:{cap_max}:{source_count}")
    if kind == "grid":
        rows = max(1, int(n ** 0.5))
        cols = max(1, n // rows)
        if rows * cols < 2:
            raise InvalidParams("grid target size too small")
        graph = grid_graph(rows, cols)
    else:
        if n < 3:
            raise InvalidParams("triangulation needs n >= 3")
        graph = stacked_triangulation(n, rng)

    if source_count + 1 > graph.vertex_count:
        raise InvalidParams("not enough vertices for the requested terminals")
    caps = [rng.randint(1, cap_max) for _ in range(graph.dart_count)]
    terminals = rng.sample(range(graph.vertex_count), source_count + 1)
    sources, sink = terminals[:-1], terminals[-1]
    return Instance(graph, caps, sorted(sources), [sink])
