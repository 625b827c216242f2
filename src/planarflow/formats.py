"""Problem instances and the PLEM v1 / PFLO v1 text formats.

PLEM v1 (planar embedded) describes a capacitated embedded graph plus
terminals::

    plem <n> <m>
    rot <v> <dart ...>          # n lines, cyclic order of outgoing darts
    edge <id> <u> <v> <cap_uv> <cap_vu>   # m lines
    src <v ...>
    snk <v ...>

Dart ids follow the package convention (edge e owns darts 2e and 2e+1).
`#` starts a comment; tokens are whitespace-delimited. The writer emits
sorted ids so parse -> write -> parse round-trips byte-identically.

PFLO v1 is the flow dump: one ``flow <dart_id> <value>`` line per dart
carrying positive flow (ascending dart id) and a trailing ``value <V>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embedding import EmbeddedGraph, build_graph
from .errors import NotConnected, ParseError

_KEYWORDS = {"plem", "rot", "edge", "src", "snk"}


@dataclass
class Instance:
    """A capacitated embedded graph with sources and sinks: the unit of I/O."""

    graph: EmbeddedGraph
    capacities: list[int]  # per dart
    sources: list[int]
    sinks: list[int]

    def __post_init__(self):
        if len(self.capacities) != self.graph.dart_count:
            raise ValueError("one capacity per dart required")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        terminals = set(self.sources) | set(self.sinks)
        if len(self.sources) + len(self.sinks) != len(terminals):
            raise ValueError("sources and sinks must be distinct vertices")
        for v in terminals:
            if not 0 <= v < self.graph.vertex_count:
                raise ValueError(f"terminal {v} out of range")


class _Tokens:
    """Token stream with one-token lookahead over comment-stripped text.

    Tokens are held in reverse order and popped as they are read, so a
    consumed token is freed at once instead of at the end of the parse.
    """

    def __init__(self, text: str):
        self.toks: list[str] = []
        for line in text.splitlines():
            self.toks.extend(line.split("#", 1)[0].split())
        self.toks.reverse()

    def peek(self) -> str | None:
        return self.toks[-1] if self.toks else None

    def take(self, what: str) -> str:
        if not self.toks:
            raise ParseError(f"unexpected end of input, expected {what}")
        return self.toks.pop()

    def take_int(self, what: str) -> int:
        return _int_token(self.take(what), what)

    def take_ints_until_keyword(self) -> list[int]:
        vals = []
        while True:
            tok = self.peek()
            if tok is None or tok in _KEYWORDS:
                return vals
            vals.append(_int_token(self.take("integer"), "integer"))


def _int_token(tok: str, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected {what}, got {tok!r}") from None


def parse_instance(text: str) -> Instance:
    """Parse PLEM v1 text; rejects malformed input and disconnected graphs."""
    ts = _Tokens(text)
    if ts.take("header keyword") != "plem":
        raise ParseError("input does not start with 'plem'")
    n = ts.take_int("vertex count")
    m = ts.take_int("edge count")
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    # each rot line takes at least 2 tokens and each edge line 6; check
    # before sizing any list from the header
    left = len(ts.toks)
    if 2 * n + 6 * m > left:
        raise ParseError(f"header 'plem {n} {m}' needs at least {2 * n + 6 * m} "
                         f"more tokens, input has {left}")

    rotations: list[list[int]] = [[] for _ in range(n)]
    seen_rot = [False] * n
    for _ in range(n):
        if ts.take("rot keyword") != "rot":
            raise ParseError("expected 'rot' line")
        v = ts.take_int("rot vertex")
        if not 0 <= v < n or seen_rot[v]:
            raise ParseError(f"bad or repeated rot vertex {v}")
        seen_rot[v] = True
        rotations[v] = ts.take_ints_until_keyword()

    edges: list[tuple[int, int]] = [(-1, -1)] * m
    caps: list[int] = [0] * (2 * m)
    seen_edge = [False] * m
    for _ in range(m):
        if ts.take("edge keyword") != "edge":
            raise ParseError("expected 'edge' line")
        e = ts.take_int("edge id")
        if not 0 <= e < m or seen_edge[e]:
            raise ParseError(f"bad or repeated edge id {e}")
        seen_edge[e] = True
        u = ts.take_int("edge tail")
        v = ts.take_int("edge head")
        caps[2 * e] = ts.take_int("cap_uv")
        caps[2 * e + 1] = ts.take_int("cap_vu")
        if caps[2 * e] < 0 or caps[2 * e + 1] < 0:
            raise ParseError(f"negative capacity on edge {e}")
        edges[e] = (u, v)

    if ts.take("src keyword") != "src":
        raise ParseError("expected 'src' line")
    sources = ts.take_ints_until_keyword()
    if ts.take("snk keyword") != "snk":
        raise ParseError("expected 'snk' line")
    sinks = ts.take_ints_until_keyword()
    if ts.peek() is not None:
        raise ParseError(f"trailing content: {ts.peek()!r}")
    if not sources or not sinks:
        raise ParseError("need at least one source and one sink")

    try:
        graph = build_graph(n, edges, rotations)
    except Exception as exc:  # NonEmbedding / DanglingDart carry detail
        raise ParseError(f"embedding rejected: {exc}") from exc
    if not graph.connected:
        raise NotConnected("PLEM input must be connected")
    try:
        return Instance(graph, caps, sources, sinks)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_instance(inst: Instance) -> str:
    """Serialize to PLEM v1. Deterministic: sorted ids, fixed layout."""
    g = inst.graph
    out = [f"plem {g.vertex_count} {g.edge_count}"]
    for v in range(g.vertex_count):
        out.append("rot " + " ".join(str(x) for x in [v] + g.rotations[v]))
    for e, (u, v) in enumerate(g.edges):
        out.append(f"edge {e} {u} {v} {inst.capacities[2 * e]} {inst.capacities[2 * e + 1]}")
    out.append("src " + " ".join(str(v) for v in inst.sources))
    out.append("snk " + " ".join(str(v) for v in inst.sinks))
    return "\n".join(out) + "\n"


@dataclass
class FlowDump:
    """Parsed PFLO v1 payload."""

    dart_flow: dict[int, int] = field(default_factory=dict)
    value: int = 0


def write_flow(dart_flow: list[int], value: int) -> str:
    """Serialize a per-dart flow assignment to PFLO v1."""
    out = []
    for d, f in enumerate(dart_flow):
        if f > 0:
            out.append(f"flow {d} {f}")
    out.append(f"value {value}")
    return "\n".join(out) + "\n"


def parse_flow(text: str) -> FlowDump:
    ts = _Tokens(text)
    dump = FlowDump()
    saw_value = False
    while ts.peek() is not None:
        key = ts.take("flow or value keyword")
        if key == "flow":
            d = ts.take_int("dart id")
            if d in dump.dart_flow:
                raise ParseError(f"repeated flow line for dart {d}")
            dump.dart_flow[d] = ts.take_int("flow value")
        elif key == "value":
            if saw_value:
                raise ParseError("repeated value line")
            dump.value = ts.take_int("total value")
            saw_value = True
        else:
            raise ParseError(f"unexpected token {key!r} in PFLO input")
    if not saw_value:
        raise ParseError("PFLO input missing 'value' line")
    return dump
