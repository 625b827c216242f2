"""Shared corpus builders and small independent oracles for the tests."""

from __future__ import annotations

import random

import pytest

from planarflow import Instance, build_graph, generate_instance


# K4 with vertex 0's rotation reversed: two faces where Euler's formula
# needs four, so no planar embedding
TWISTED_K4 = """plem 4 6
rot 0 6 0 5
rot 1 2 10 1
rot 2 4 8 3
rot 3 11 9 7
edge 0 0 1 3 2
edge 1 1 2 5 2
edge 2 2 0 5 4
edge 3 0 3 2 1
edge 4 2 3 2 4
edge 5 1 3 5 2
src 1
snk 2
"""


def corpus(count: int, seed0: int = 0, max_n: int = 120, cap_max: int = 100,
           max_sources: int = 8, extra_sinks: int = 0) -> list[Instance]:
    """Deterministic mixed bag of grid and triangulation instances."""
    out = []
    for i in range(count):
        seed = seed0 + i
        rng = random.Random(f"corpus:{seed}")
        kind = "grid" if i % 2 else "triangulation"
        n = rng.randint(6, max_n)
        k = rng.randint(1, max(1, min(max_sources, n // 2)))
        inst = generate_instance(kind, n, seed, cap_max, k)
        if extra_sinks:
            free = [v for v in range(inst.graph.vertex_count)
                    if v not in inst.sources and v not in inst.sinks]
            extras = rng.sample(free, min(extra_sinks, len(free)))
            inst = Instance(inst.graph, inst.capacities, inst.sources,
                            inst.sinks + extras)
        out.append(inst)
    return out


def reaching(state, t: int) -> set[int]:
    """All vertices from which `t` is reachable along residual darts."""
    g = state.graph
    seen = {t}
    stack = [t]
    while stack:
        w = stack.pop()
        for d in g.rotations[w]:
            u = g.head(d)
            if u not in seen and state.residual(d ^ 1) > 0:
                seen.add(u)
                stack.append(u)
    return seen


def thin_sources(inst: Instance) -> Instance:
    """The instance with capacity 1 on every dart out of a source and 10^6
    on every other dart."""
    sources = set(inst.sources)
    tail = inst.graph.tail
    caps = [1 if tail(d) in sources else 10 ** 6
            for d in range(inst.graph.dart_count)]
    return Instance(inst.graph, caps, inst.sources, inst.sinks)


def with_parallel_edges(g, seed, count):
    """`g` with `count` extra copies of random edges, each beside its edge."""
    rng = random.Random(seed)
    edges = list(g.edges)
    rotations = [list(rot) for rot in g.rotations]
    for _ in range(count):
        e = rng.randrange(g.edge_count)
        u, v = g.edges[e]
        new = len(edges)
        edges.append((u, v))
        rotations[u].insert(rotations[u].index(2 * e) + 1, 2 * new)
        rotations[v].insert(rotations[v].index(2 * e + 1), 2 * new + 1)
    return build_graph(g.vertex_count, edges, rotations)


def relabel(inst: Instance, rng: random.Random) -> Instance:
    """Apply a random vertex permutation; dart ids stay fixed."""
    n = inst.graph.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in inst.graph.edges]
    rotations: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        rotations[perm[v]] = list(inst.graph.rotations[v])
    g = build_graph(n, edges, rotations)
    return Instance(g, list(inst.capacities), [perm[s] for s in inst.sources],
                    [perm[t] for t in inst.sinks])


@pytest.fixture
def small_corpus():
    return corpus(30, seed0=1000, max_n=60)
