"""Per-layer tracing of planarflow solves from outside the package.

The tracer observes a solve only through what the library already
exposes: a timing callable passed as ``engine=``, a ``SolveTrace``
subclass passed as ``trace=``, and wrappers installed on public names at
the places they are looked up (``planarflow.solver.bounded_push``,
``planarflow.maxflow.insert_vertex_in_face``, ``EmbeddedGraph.__init__``
and so on). A name that no longer exists is reported as absent; the
metrics it fed then read 0.

Each wrapped call becomes a span (name, start, end, parent). A span's
self time is its duration minus the durations of its child spans. The
phases of ``piece_maxflow`` are windows of its span, delimited by the
``SolveTrace`` hooks:

* phase 1 runs from entry to ``phase1_done``; when that hook does not
  fire it ends where ``attach_super_sinks`` returned, or at entry when
  the piece had no interior sources;
* phase 2 runs from there to ``phase2_done``; phase 3 to the span end.

A phase's time excludes nested ``piece_maxflow`` spans (they count in
their own phases). A ``max_st_flow`` call counts as phase 2 when it runs
inside a piece's phase-2 window and as base case otherwise (the
saturation of small recursive levels, or of the top level). The self
time of ``max_st_flow`` itself is the construction of the cut it returns.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PIECE = "piece_maxflow"

# (module, attribute path, span name): every place a solve's calls are
# observed. Modules import names into their own namespace, so each lookup
# site is wrapped where the caller resolves it.
HOOKS = [
    ("planarflow.solver", "piece_maxflow", PIECE),
    ("planarflow.solver", "divide", "divide"),
    ("planarflow.solver", "attach_super_sinks", "attach_super_sinks"),
    ("planarflow.solver", "max_st_flow", "max_st_flow"),
    ("planarflow.solver", "bounded_push", "bounded_push"),
    ("planarflow.solver", "cancel_flow_cycles", "cancel_flow_cycles"),
    ("planarflow.solver", "drain_excess", "drain_excess"),
    ("planarflow.maxflow", "max_st_flow", "max_st_flow"),
    ("planarflow.maxflow", "residual_reachable", "residual_reachable"),
    ("planarflow.maxflow", "insert_vertex_in_face", "insert_vertex_in_face"),
    ("planarflow.decomposition", "triangulate", "triangulate"),
    ("planarflow.decomposition", "induced_subgraph", "induced_subgraph"),
    ("planarflow.decomposition", "insert_vertex_in_face", "insert_vertex_in_face"),
    ("planarflow.embedding", "EmbeddedGraph.__init__", "EmbeddedGraph"),
    ("planarflow.flowstate", "FlowState.__init__", "FlowState"),
]

# Counts that must repeat exactly for one instance, in any process.
DETERMINISTIC_COUNTS = ("embedding.graph_builds", "maxflow.engine_calls",
                        "maxflow.bounded_push_calls", "solver.piece_calls")

# span name -> (count metric or None, self-time metric or None)
_SPAN_METRICS = {
    "EmbeddedGraph": ("embedding.graph_builds", "embedding.build_s"),
    "insert_vertex_in_face": ("embedding.insert_vertex_calls",
                              "embedding.insert_vertex_s"),
    "induced_subgraph": (None, "embedding.induced_subgraph_s"),
    "divide": ("decomposition.divide_calls", "decomposition.divide_s"),
    "triangulate": (None, "decomposition.triangulate_s"),
    "attach_super_sinks": (None, "decomposition.attach_s"),
    "engine": ("maxflow.engine_calls", "maxflow.engine_s"),
    "residual_reachable": (None, "maxflow.reachable_s"),
    "bounded_push": ("maxflow.bounded_push_calls", "maxflow.bounded_push_s"),
    "FlowState": ("flowstate.states_built", "flowstate.build_s"),
    "max_st_flow": (None, "maxflow.cut_s"),
    "cancel_flow_cycles": (None, "flowstate.cancel_s"),
    "drain_excess": (None, "flowstate.drain_s"),
    PIECE: ("solver.piece_calls", None),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "piece", "children",
                 "useful", "marks")

    def __init__(self, name, start, parent, piece):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.piece = piece        # nearest enclosing piece_maxflow span
        self.children = []
        self.useful = False       # the call returned a nonzero amount
        self.marks = {}           # piece spans: hook name -> time


class Tracer:
    """Records spans of one solve at a time and accumulates layer metrics."""

    def __init__(self):
        self.totals = Counter()   # metric name -> summed value
        self.maxima = Counter()   # metric name -> maximum value
        self.absent: list[str] = []
        self.engine = None
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._useful = Counter()  # span name -> calls that moved flow

    # -- span recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        piece = None
        if parent is not None:
            piece = parent if parent.name == PIECE else parent.piece
        span = Span(name, perf_counter(), parent, piece)
        if parent is not None:
            parent.children.append(span)
        self._spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.useful = isinstance(result, int) and result > 0
            return result
        return wrapper

    def _wrap_cancel(self, fn):
        """cancel_flow_cycles, also counting the cycles it cancelled."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            before = getattr(state, "cancelled_cycles", None)
            span = tracer._open("cancel_flow_cycles")
            try:
                result = fn(state, *args, **kwargs)
            finally:
                tracer._close(span)
            after = getattr(state, "cancelled_cycles", None)
            if before is None or after is None:
                tracer._mark_absent("planarflow.flowstate.FlowState.cancelled_cycles")
            else:
                tracer.totals["flowstate.cycles_cancelled"] += after - before
            return result
        return wrapper

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def mark(self, hook: str) -> None:
        """Record a SolveTrace hook on the innermost open piece span."""
        for span in reversed(self._stack):
            if span.name == PIECE:
                span.marks.setdefault(hook, perf_counter())
                return

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every hook point for the duration of the block."""
        restore = []
        for module_name, path, name in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self._mark_absent(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            wrapped = (self._wrap_cancel(fn) if name == "cancel_flow_cycles"
                       else self._wrap(name, fn))
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, fn))
        found = _resolve("planarflow.maxflow", "ENGINES")
        default = _resolve("planarflow.maxflow", "DEFAULT_ENGINE")
        if found is None or default is None or default[2] not in found[2]:
            self._mark_absent("planarflow.maxflow.ENGINES[DEFAULT_ENGINE]")
            self.engine = None
        else:
            self.engine = self._wrap("engine", found[2][default[2]])
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(restore):
                setattr(owner, attr, fn)
            self.engine = None

    def solve_trace(self, base_class):
        """A SolveTrace subclass instance whose hooks feed this tracer."""
        tracer = self

        class _Hooks(base_class):
            def division_made(self, instance, division, depth=0):
                tracer.maxima["solver.max_depth"] = max(
                    tracer.maxima["solver.max_depth"], depth + 1)
                tracer.totals["decomposition.pieces"] += len(division.pieces)
                for piece in division.pieces:
                    tracer.maxima["decomposition.max_boundary"] = max(
                        tracer.maxima["decomposition.max_boundary"],
                        len(piece.boundary))
                    tracer.maxima["decomposition.max_holes"] = max(
                        tracer.maxima["decomposition.max_holes"],
                        len(piece.holes))

            def phase1_done(self, piece, sub_instance, sub_state):
                tracer.mark("phase1_done")

            def phase2_done(self, instance, state):
                tracer.mark("phase2_done")

        return _Hooks()

    # -- one traced call -------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn under a top-level span; fold its spans into the totals.

        Returns (result, elapsed seconds, per-call counts).
        """
        before = Counter(self.totals)
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
            self._fold()
        counts = {k: self.totals[k] - before[k] for k in DETERMINISTIC_COUNTS}
        return result, span.end - span.start, counts

    def _fold(self) -> None:
        totals = self.totals
        windows = {s: self._windows(s) for s in self._spans if s.name == PIECE}
        recursive = self._spans[0].name == "solve_recursive"
        for span in self._spans:
            duration = span.end - span.start
            own = duration - sum(c.end - c.start for c in span.children)
            count_metric, time_metric = _SPAN_METRICS.get(span.name, (None, None))
            if count_metric:
                totals[count_metric] += 1
            if time_metric:
                totals[time_metric] += own
            if span.useful:
                self._useful[span.name] += 1
            if span.name == PIECE:
                t1, t2 = windows[span]
                totals["solver.phase1_s"] += t1 - span.start
                totals["solver.phase2_s"] += t2 - t1
                totals["solver.phase3_s"] += span.end - t2
            phase = 0
            if span.piece is not None:
                t1, t2 = windows[span.piece]
                phase = 1 if span.start < t1 else 2 if span.start < t2 else 3
            if span.name == "engine" and phase == 2:
                totals["solver.phase2_engine_s"] += own
            base_case = recursive and span.name == "max_st_flow" and phase != 2
            if base_case:
                totals["solver.base_case_s"] += duration
            if phase and (base_case or span.name == PIECE):
                # counted in its own phases, or as base case
                totals[f"solver.phase{phase}_s"] -= duration
        self._spans.clear()

    @staticmethod
    def _windows(piece: Span):
        """(phase-1 end, phase-2 end) times of a piece_maxflow span."""
        t1 = piece.marks.get("phase1_done")
        if t1 is None:
            attach = [c for c in piece.children if c.name == "attach_super_sinks"]
            t1 = attach[0].end if attach else piece.start
        t2 = piece.marks.get("phase2_done", piece.end)
        return t1, t2

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = dict(self.totals)
        out.update(self.maxima)
        for name, metric in (("engine", "maxflow.engine_useful_ratio"),
                             ("bounded_push", "maxflow.bounded_push_useful_ratio")):
            calls = self.totals[_SPAN_METRICS[name][0]]
            out[metric] = self._useful[name] / calls if calls else 0.0
        return out
